// Package jpeg reproduces the nvJPEG targets of the paper's evaluation
// (§VIII-B): a JPEG-style grayscale codec. The encoder runs level shift,
// 8x8 DCT, quantization, and an entropy-length pass whose zero-run
// branches and code-length table lookups are the control-flow and
// data-flow leaks the paper found in nvJPEG encoding; the decoder
// (dequantization + inverse DCT) is constant-execution and leak-free, as
// the paper observed. One thread per pixel/coefficient gives the linear
// trace-size growth of Fig. 5 (pattern ❸).
package jpeg

import (
	"math"
	"sync"
)

// Constant-memory layout shared by the codec kernels.
const (
	constCos    = 0   // 64 entries: alpha(u)*cos((2x+1)u*pi/16)/2, Q14
	constQuant  = 64  // 64-entry luminance quantization table
	constZigzag = 128 // 64-entry zig-zag order
	constACLen  = 192 // 16*12 entries: AC (run, size) -> code length
	constDCLen  = 384 // 12 entries: DC size -> code length
	constWords  = 396
)

// cosQ is the Q14 fixed-point scale of the DCT basis table.
const cosQ = 14

// dctShift converts a sum of pixel*basis*basis products back to integers:
// two Q14 factors.
const dctShift = 2 * cosQ

// cosTable returns alpha(u)*cos((2x+1)u*pi/16)/2 in Q14, indexed u*8+x.
func cosTable() [64]int64 {
	var t [64]int64
	for u := 0; u < 8; u++ {
		alpha := 1.0
		if u == 0 {
			alpha = 1 / math.Sqrt2
		}
		for x := 0; x < 8; x++ {
			v := alpha * math.Cos(float64(2*x+1)*float64(u)*math.Pi/16) / 2
			t[u*8+x] = int64(math.Round(v * float64(int64(1)<<cosQ)))
		}
	}
	return t
}

// quantTable is the Annex-K JPEG luminance quantization matrix.
func quantTable() [64]int64 {
	return [64]int64{
		16, 11, 10, 16, 24, 40, 51, 61,
		12, 12, 14, 19, 26, 58, 60, 55,
		14, 13, 16, 24, 40, 57, 69, 56,
		14, 17, 22, 29, 51, 87, 80, 62,
		18, 22, 37, 56, 68, 109, 103, 77,
		24, 35, 55, 64, 81, 104, 113, 92,
		49, 64, 78, 87, 103, 121, 120, 101,
		72, 92, 95, 98, 112, 100, 103, 99,
	}
}

// zigzagOrder returns the standard JPEG zig-zag scan order: position k of
// the scan maps to raster index zigzag[k] (row*8+col).
func zigzagOrder() [64]int64 {
	var zz [64]int64
	k := 0
	for s := 0; s < 15; s++ {
		if s%2 == 0 { // walk up-right from the bottom of the anti-diagonal
			row := s
			if row > 7 {
				row = 7
			}
			col := s - row
			for row >= 0 && col <= 7 {
				zz[k] = int64(row*8 + col)
				k++
				row--
				col++
			}
		} else { // walk down-left from the top of the anti-diagonal
			col := s
			if col > 7 {
				col = 7
			}
			row := s - col
			for col >= 0 && row <= 7 {
				zz[k] = int64(row*8 + col)
				k++
				col--
				row++
			}
		}
	}
	return zz
}

// acLenTable approximates the JPEG AC Huffman code lengths: indexed
// run*12 + size for run in 0..15, size in 0..11. Derived from the
// Annex-K typical-length statistics shape (short codes for short
// runs/small sizes).
func acLenTable() [16 * 12]int64 {
	var t [16 * 12]int64
	for run := 0; run < 16; run++ {
		for size := 0; size < 12; size++ {
			l := 2 + run + size
			if l > 16 {
				l = 16
			}
			t[run*12+size] = int64(l)
		}
	}
	return t
}

// dcLenTable approximates the JPEG DC Huffman code lengths by size
// category.
func dcLenTable() [12]int64 {
	return [12]int64{2, 3, 3, 3, 3, 3, 4, 5, 6, 7, 8, 9}
}

// constantMemory returns the full constant-memory image, built once per
// process and read-only: every encode and decode uploads the same tables.
var constantMemory = sync.OnceValue(func() []int64 {
	buf := make([]int64, constWords)
	cos := cosTable()
	copy(buf[constCos:], cos[:])
	q := quantTable()
	copy(buf[constQuant:], q[:])
	zz := zigzagOrder()
	copy(buf[constZigzag:], zz[:])
	ac := acLenTable()
	copy(buf[constACLen:], ac[:])
	dc := dcLenTable()
	copy(buf[constDCLen:], dc[:])
	return buf
})

// SynthImage generates a deterministic grayscale test image: a gradient
// plus seeded texture, standing in for the paper's COCO-2014 inputs.
func SynthImage(w, h int, seed int64) []byte {
	img := make([]byte, w*h)
	x := uint64(seed)*0x9e3779b97f4a7c15 + 1
	for i := range img {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		grad := (i % w * 255) / w
		img[i] = byte((grad + int(x&63)) & 255)
	}
	return img
}
