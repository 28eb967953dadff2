// Package db implements the crawler's local database: per-app records with
// daily statistics and comments, safe for concurrent crawler writers, with
// JSONL persistence so crawl sessions can resume and analyses can run
// offline — the role of the "local database" in the paper's Figure 1.
package db

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// AppRecord is the stored state of one app, updated by daily crawls.
type AppRecord struct {
	// ID is the store's app identifier.
	ID int32 `json:"id"`
	// Name is the display name.
	Name string `json:"name"`
	// Category is the store's category name.
	Category string `json:"category"`
	// Developer is the publisher account name.
	Developer string `json:"developer"`
	// Paid reports whether the app requires payment.
	Paid bool `json:"paid"`
	// Price is the current list price.
	Price float64 `json:"price"`
	// HasAds reports a detected advertising library.
	HasAds bool `json:"has_ads"`
	// Daily holds one entry per crawl day that observed the app.
	Daily []DailyStat `json:"daily"`
	// APKVersions lists the version numbers whose packages were fetched;
	// the crawler downloads each version exactly once.
	APKVersions []int `json:"apk_versions,omitempty"`
	// APKBytes accumulates the package bytes transferred for this app.
	APKBytes int64 `json:"apk_bytes,omitempty"`
}

// DailyStat is one day's observation of an app.
type DailyStat struct {
	// Day is the crawl day index.
	Day int `json:"day"`
	// Downloads is the cumulative download count shown by the store.
	Downloads int64 `json:"downloads"`
	// Version is the app's version counter.
	Version int `json:"version"`
	// Price is the day's list price.
	Price float64 `json:"price"`
}

// CommentRecord is one crawled user comment.
type CommentRecord struct {
	App    int32 `json:"app"`
	User   int32 `json:"user"`
	Rating int8  `json:"rating"`
	// UnixTime is the comment timestamp in Unix seconds.
	UnixTime int64 `json:"t"`
}

// DB is an in-memory crawl database. All methods are safe for concurrent
// use.
type DB struct {
	mu       sync.RWMutex
	apps     map[int32]*AppRecord
	comments []CommentRecord
	// commentSeen deduplicates comments across daily re-crawls.
	commentSeen map[commentKey]struct{}
}

type commentKey struct {
	app, user int32
	t         int64
}

// New creates an empty database.
func New() *DB {
	return &DB{
		apps:        map[int32]*AppRecord{},
		commentSeen: map[commentKey]struct{}{},
	}
}

// UpsertApp merges an app observation: static fields are refreshed and the
// daily stat is appended (or replaced when the same day is re-crawled).
func (d *DB) UpsertApp(rec AppRecord, stat DailyStat) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur, ok := d.apps[rec.ID]
	if !ok {
		cur = &AppRecord{ID: rec.ID}
		d.apps[rec.ID] = cur
	}
	cur.Name = rec.Name
	cur.Category = rec.Category
	cur.Developer = rec.Developer
	cur.Paid = rec.Paid
	cur.Price = rec.Price
	cur.HasAds = rec.HasAds
	if n := len(cur.Daily); n > 0 && cur.Daily[n-1].Day == stat.Day {
		cur.Daily[n-1] = stat
		return
	}
	cur.Daily = append(cur.Daily, stat)
}

// HasAPK reports whether the given app version's package was already
// fetched.
func (d *DB) HasAPK(id int32, version int) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	rec, ok := d.apps[id]
	if !ok {
		return false
	}
	for _, v := range rec.APKVersions {
		if v == version {
			return true
		}
	}
	return false
}

// RecordAPK marks an app version's package as fetched, accumulating the
// transferred byte count. The app record must already exist (UpsertApp
// first); unknown apps are ignored and reported as false.
func (d *DB) RecordAPK(id int32, version int, bytes int64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	rec, ok := d.apps[id]
	if !ok {
		return false
	}
	for _, v := range rec.APKVersions {
		if v == version {
			return false
		}
	}
	rec.APKVersions = append(rec.APKVersions, version)
	rec.APKBytes += bytes
	return true
}

// AddComment stores a comment unless an identical (app, user, time) triple
// was already recorded. It reports whether the comment was new.
func (d *DB) AddComment(c CommentRecord) bool {
	k := commentKey{c.App, c.User, c.UnixTime}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.commentSeen[k]; dup {
		return false
	}
	d.commentSeen[k] = struct{}{}
	d.comments = append(d.comments, c)
	return true
}

// NumApps returns the number of known apps.
func (d *DB) NumApps() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.apps)
}

// NumComments returns the number of stored comments.
func (d *DB) NumComments() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.comments)
}

// App returns a copy of the record for the given app and whether it exists.
func (d *DB) App(id int32) (AppRecord, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	rec, ok := d.apps[id]
	if !ok {
		return AppRecord{}, false
	}
	cp := *rec
	cp.Daily = append([]DailyStat(nil), rec.Daily...)
	cp.APKVersions = append([]int(nil), rec.APKVersions...)
	return cp, true
}

// Apps returns copies of all records sorted by ID.
func (d *DB) Apps() []AppRecord {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]AppRecord, 0, len(d.apps))
	for _, rec := range d.apps {
		cp := *rec
		cp.Daily = append([]DailyStat(nil), rec.Daily...)
		cp.APKVersions = append([]int(nil), rec.APKVersions...)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Comments returns a copy of all stored comments in insertion order.
func (d *DB) Comments() []CommentRecord {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]CommentRecord(nil), d.comments...)
}

// DownloadsOnDay returns per-app cumulative downloads as of the given crawl
// day, covering apps observed on or before that day. The slice is indexed
// by position in the sorted-ID app list; ids carries the matching app IDs.
func (d *DB) DownloadsOnDay(day int) (ids []int32, downloads []int64) {
	for _, rec := range d.Apps() {
		var best *DailyStat
		for i := range rec.Daily {
			if rec.Daily[i].Day <= day {
				best = &rec.Daily[i]
			}
		}
		if best == nil {
			continue
		}
		ids = append(ids, rec.ID)
		downloads = append(downloads, best.Downloads)
	}
	return ids, downloads
}

// jsonlLine is the persistence envelope: one typed record per line.
type jsonlLine struct {
	App     *AppRecord     `json:"app,omitempty"`
	Comment *CommentRecord `json:"comment,omitempty"`
}

// WriteTo streams the database as JSONL. Apps are written sorted by ID,
// then comments in insertion order.
func (d *DB) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var n int64
	for _, rec := range d.Apps() {
		rec := rec
		if err := enc.Encode(jsonlLine{App: &rec}); err != nil {
			return n, err
		}
		n++
	}
	for _, c := range d.Comments() {
		c := c
		if err := enc.Encode(jsonlLine{Comment: &c}); err != nil {
			return n, err
		}
		n++
	}
	return n, bw.Flush()
}

// ReadFrom loads JSONL lines produced by WriteTo into the database,
// merging with existing content.
func (d *DB) ReadFrom(r io.Reader) (int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var n int64
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var l jsonlLine
		if err := json.Unmarshal(line, &l); err != nil {
			return n, fmt.Errorf("db: line %d: %w", n+1, err)
		}
		switch {
		case l.App != nil:
			d.mu.Lock()
			cp := *l.App
			cp.Daily = append([]DailyStat(nil), l.App.Daily...)
			cp.APKVersions = append([]int(nil), l.App.APKVersions...)
			d.apps[cp.ID] = &cp
			d.mu.Unlock()
		case l.Comment != nil:
			d.AddComment(*l.Comment)
		}
		n++
	}
	return n, sc.Err()
}

// SaveFile writes the database to path atomically (write to temp file in
// the same directory, then rename).
func (d *DB) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := d.WriteTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile reads a database file produced by SaveFile.
func LoadFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d := New()
	if _, err := d.ReadFrom(f); err != nil {
		return nil, err
	}
	return d, nil
}
