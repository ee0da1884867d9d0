package tensor

// simdDetected is what the CPU check found at package init.
var simdDetected = useAVX2

// setSIMD turns the SIMD kernels on (where the CPU has them) or off and
// returns a func restoring the previous setting.
func setSIMD(on bool) (restore func()) {
	old := useAVX2
	useAVX2 = on && simdDetected
	return func() { useAVX2 = old }
}
