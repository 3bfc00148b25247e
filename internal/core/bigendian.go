//go:build ppc64 || s390x || mips || mips64

package core

// The typed slice views (Thread.LoadFloat64s and the rest) hand the
// caller's slice memory to the arena and the GlobalBuffer as its
// little-endian byte image. On a big-endian host that image is
// byte-swapped, so this package refuses to build there.
var _ = typedSliceViewsNeedALittleEndianHost
