package engine

// SetSeekGap sets how many stable rows per key SeekKeys stretches a window
// over and returns the function that restores the old value.
func SetSeekGap(gap uint64) (restore func()) {
	old := seekGap
	seekGap = gap
	return func() { seekGap = old }
}
