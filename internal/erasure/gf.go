// Package erasure implements the Reed–Solomon erasure coding ERMS applies
// to cold data ("a replication factor of one and four coding parities").
//
// The codec is systematic: the k data shards are stored unmodified and m
// parity shards are appended, so ordinary reads never touch the decoder.
// Arithmetic is over GF(2^8) with the polynomial x^8+x^4+x^3+x^2+1
// (0x11D, the conventional Reed-Solomon polynomial, under which x is primitive), using log/exp tables.
package erasure

// gfPoly is the reduction polynomial for GF(2^8).
const gfPoly = 0x11D

var (
	gfExp [512]byte // exp table doubled to avoid mod-255 in mul
	gfLog [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfDiv divides a by b; b must be nonzero.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("erasure: division by zero in GF(256)")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfInv returns the multiplicative inverse; a must be nonzero.
func gfInv(a byte) byte { return gfDiv(1, a) }

// gfExpPow returns a^n for field element a.
func gfExpPow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	idx := (int(gfLog[a]) * n) % 255
	if idx < 0 {
		idx += 255
	}
	return gfExp[idx]
}

// mulSlice computes dst[i] ^= c * src[i] for all i (accumulating
// multiply-add, the inner loop of encoding).
func mulSlice(c byte, src, dst []byte) {
	if c == 0 {
		return
	}
	logC := int(gfLog[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= gfExp[logC+int(gfLog[s])]
		}
	}
}
