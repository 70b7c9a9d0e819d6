package core

// Chunked bitmask helpers over a frozen pool ordering. A mask is a
// []uint64 of maskWords(n) words; bit i corresponds to the pool host at
// frozen index i. Masks with ≤64 hosts are a single word, so the common
// pools stay one register wide; larger grids chunk transparently. All
// helpers are allocation-free — callers own the backing slices.

// maskWords returns the number of 64-bit words needed for n bits.
func maskWords(n int) int { return (n + 63) / 64 }

// maskSet sets bit i.
func maskSet(m []uint64, i int) { m[i>>6] |= 1 << (uint(i) & 63) }

// maskTest reports whether bit i is set.
func maskTest(m []uint64, i int) bool { return m[i>>6]&(1<<(uint(i)&63)) != 0 }
