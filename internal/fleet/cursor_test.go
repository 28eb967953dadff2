package fleet

import (
	"encoding/base64"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// FuzzGatewayCursor holds the g1: multi-anchor cursor codec — bytes a
// client may forge — to its contract: unpackCursor never panics, accepts
// only as many non-negative anchors as the ring has shards, and what it
// accepts re-packs into a cursor that unpacks to the same anchors; and any
// anchor vector (non-negative global IDs) survives packCursor then
// unpackCursor unchanged.
func FuzzGatewayCursor(f *testing.F) {
	raw := func(s string) string { return base64.RawURLEncoding.EncodeToString([]byte(s)) }
	f.Add(packCursor([]int32{0, 400, 3, 1 << 30}), uint8(4), []byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f})
	f.Add(packCursor(nil), uint8(0), []byte{})
	f.Add(raw("g1:"), uint8(0), []byte{7})
	f.Add(raw("g1:2:+5:-0"), uint8(2), []byte{0, 0, 0, 0x80})
	f.Add(raw("g1:1:2147483648"), uint8(1), []byte{9, 9})
	f.Add(raw("g1:3:1::2"), uint8(3), []byte{})
	f.Add("!!", uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, cur string, shards uint8, vec []byte) {
		if a, ok := unpackCursor(cur, int(shards)); ok {
			if len(a) != int(shards) {
				t.Fatalf("%q accepted for %d shards with %d anchors", cur, shards, len(a))
			}
			for _, v := range a {
				if v < 0 {
					t.Fatalf("%q accepted with anchor %d", cur, v)
				}
			}
			if again, ok := unpackCursor(packCursor(a), int(shards)); !ok || !slices.Equal(again, a) {
				t.Fatalf("%q: anchors %v re-pack to %v (ok %v)", cur, a, again, ok)
			}
		}
		anchors := make([]int32, len(vec)/4)
		for i := range anchors {
			anchors[i] = int32(binary.LittleEndian.Uint32(vec[4*i:]) & math.MaxInt32)
		}
		if got, ok := unpackCursor(packCursor(anchors), len(anchors)); !ok || !slices.Equal(got, anchors) {
			t.Fatalf("anchors %v round-trip to %v (ok %v)", anchors, got, ok)
		}
	})
}
