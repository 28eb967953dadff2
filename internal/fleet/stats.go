package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"

	"planetapps/internal/apiwire"
	"planetapps/internal/storeserver"
)

// serveStats scatters /api/v1/stats to every shard, verifies the fleet is
// on one epoch, and serves the summed document. The body and ETag are
// byte-identical to what a single node holding the whole catalog would
// serve: apps and downloads sum across disjoint partitions, and the ETag
// is the same "s<day>-t<total>" content hash.
func (g *Gateway) serveStats(w http.ResponseWriter, r *http.Request) {
	var agg storeserver.StatsJSON
	var hd head
	err := g.retryEpoch(func() (string, *apiwire.Error) {
		stats := make([]storeserver.StatsJSON, len(g.cfg.Shards))
		heads := make([]head, len(g.cfg.Shards))
		gerr := g.scatter(r.Context(), func(ctx context.Context, i int) *apiwire.Error {
			buf, h, e := g.fetchShard(ctx, i, apiwire.StatsPath, maxStatsBody)
			if e != nil {
				return e
			}
			defer listBufs.Put(buf)
			if err := json.Unmarshal(buf.Bytes(), &stats[i]); err != nil {
				return badShardResponse(&g.cfg.Shards[i], err.Error())
			}
			heads[i] = h
			return nil
		})
		if gerr != nil {
			return "", gerr
		}
		hd = heads[0]
		agg = storeserver.StatsJSON{Store: stats[0].Store, Day: stats[0].Day}
		for i, s := range stats {
			if heads[i].day != hd.day {
				return "", nil // epoch skew: caller retries
			}
			agg.Apps += s.Apps
			agg.TotalDownloads += s.TotalDownloads
		}
		return hd.day, nil
	})
	if err != nil {
		err.Write(w)
		return
	}
	hd.etag = `"s` + hd.day + `-t` + strconv.FormatInt(agg.TotalDownloads, 10) + `"`
	if stamp(w, r, hd) {
		return
	}
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(agg) //nolint:errcheck
	writeJSON(w, buf.Bytes())
}
