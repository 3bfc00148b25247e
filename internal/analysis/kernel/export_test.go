package kernel

// Finds reports how many times Find has run in this process.
func Finds() int64 { return finds.Load() }
