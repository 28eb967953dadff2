package marketsim

import "math/bits"

// packedSeq is an immutable sequence of integers in [0, bound) held at
// ⌈log2 bound⌉ bits each (at least one), back to back in 64-bit words with
// no padding between values and no word past the last value's.
type packedSeq struct {
	words []uint64
	width uint // bits per value, 1..31
	n     int
}

// packedWidth is the bits a value below bound needs.
func packedWidth(bound int) uint {
	if bound <= 2 {
		return 1
	}
	return uint(bits.Len(uint(bound - 1)))
}

// packSeq packs vals, every one of which must lie in [0, bound).
func packSeq(vals []int32, bound int) packedSeq {
	p := packedSeq{width: packedWidth(bound), n: len(vals)}
	p.words = make([]uint64, (uint64(len(vals))*uint64(p.width)+63)/64)
	// acc holds the low `used` bits of the word being filled.
	var acc uint64
	var used uint
	w := 0
	for _, v := range vals {
		acc |= uint64(v) << used
		if used += p.width; used >= 64 {
			p.words[w] = acc
			w++
			used -= 64
			acc = uint64(v) >> (p.width - used) // the bits of v that did not fit
		}
	}
	if used > 0 {
		p.words[w] = acc
	}
	return p
}

func (p *packedSeq) len() int { return p.n }

// at returns value k.
func (p *packedSeq) at(k int) int32 {
	bit := uint64(k) * uint64(p.width)
	w, off := bit>>6, uint(bit&63)
	v := p.words[w] >> off
	if off+p.width > 64 {
		v |= p.words[w+1] << (64 - off)
	}
	return int32(v & (1<<p.width - 1))
}
