package checksum

import "testing"

// byteRef is the RFC 1071 sum taken one byte at a time: even offsets are
// the high byte of their 16-bit word, odd offsets the low byte, with the
// end-around carry folded after every add.
func byteRef(b []byte) uint16 {
	var s uint32
	for i, c := range b {
		if i%2 == 0 {
			s += uint32(c) << 8
		} else {
			s += uint32(c)
		}
		for s > 0xffff {
			s = (s & 0xffff) + s>>16
		}
	}
	return uint16(s)
}

// same is ones-complement equality: 0x0000 and 0xffff are both zero.
func same(a, b uint16) bool { return a%0xffff == b%0xffff }

// FuzzChecksum checks the partial-sum algebra against byteRef: Sum over
// the whole input, Combine at an arbitrary (possibly odd) split, and
// Adjust after rewriting the 16-bit word at an even offset.
func FuzzChecksum(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, split uint, off uint, word uint16) {
		want := byteRef(data)
		if got := Fold(Sum(data)); !same(got, want) {
			t.Fatalf("Sum(%x) folds to %#04x, reference %#04x", data, got, want)
		}

		k := int(split % uint(len(data)+1))
		if got := Fold(Combine(Sum(data[:k]), Sum(data[k:]), k)); !same(got, want) {
			t.Fatalf("Combine split at %d of %x: %#04x, reference %#04x", k, data, got, want)
		}

		if len(data) < 2 {
			return
		}
		o := 2 * int(off%uint(len(data)/2))
		old := uint16(data[o])<<8 | uint16(data[o+1])
		s := Sum(data)
		b := append([]byte(nil), data...)
		b[o], b[o+1] = byte(word>>8), byte(word)
		if got, want := Fold(Adjust(s, old, word)), byteRef(b); !same(got, want) {
			t.Fatalf("Adjust word %d of %x from %#04x to %#04x: %#04x, reference %#04x",
				o/2, data, old, word, got, want)
		}
	})
}
