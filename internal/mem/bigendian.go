//go:build ppc64 || s390x || mips || mips64

package mem

// Two paths treat a word run's little-endian byte image as the words'
// memory: Arena.CommitWords copies a committed run into the arena in one
// copy, and core's typed slice views (Thread.LoadFloat64s and the rest)
// hand the caller's slice memory to the arena and the GlobalBuffer as
// bytes. On a big-endian host both would byte-swap every word, so this
// package — and with it every package that imports it — refuses to build
// there.
var _ = wordImagesNeedALittleEndianHost
