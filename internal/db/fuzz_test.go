package db

import (
	"bytes"
	"testing"
)

// FuzzReadFrom exercises the JSONL loader with arbitrary input: it must
// never panic, and whatever loads must survive a write/read round trip.
func FuzzReadFrom(f *testing.F) {
	// Seed with realistic lines.
	var buf bytes.Buffer
	d := New()
	rec, stat := sampleApp(1)
	d.UpsertApp(rec, stat)
	d.RecordAPK(1, 1, 77)
	d.AddComments([]CommentRecord{{App: 1, User: 2, Rating: 5, UnixTime: 9}})
	if _, err := d.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"app":{"id":1}}` + "\n"))
	f.Add([]byte(`{"comment":{"app":1,"user":2,"rating":5,"t":10}}` + "\n"))
	f.Add([]byte("{}\n\n{}\n"))
	f.Add([]byte("not json at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		loaded := New()
		if _, err := loaded.ReadFrom(bytes.NewReader(data)); err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		// Round trip whatever loaded.
		var out bytes.Buffer
		if _, err := loaded.WriteTo(&out); err != nil {
			t.Fatalf("WriteTo after successful load: %v", err)
		}
		again := New()
		if _, err := again.ReadFrom(&out); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if again.NumApps() != loaded.NumApps() || again.NumComments() != loaded.NumComments() {
			t.Fatalf("round trip changed app or comment count: %d -> %d apps, %d -> %d comments",
				loaded.NumApps(), again.NumApps(), loaded.NumComments(), again.NumComments())
		}
	})
}
