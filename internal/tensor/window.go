package tensor

// windowOffsets tabulates a strided, zero-padded N-d sliding window once
// per call, so that no kernel derives or bounds-checks coordinates in
// its inner loop: off[m*kVol+ki] is the flat input-spatial offset read
// by tap ki (row-major over k) of output position m (row-major over
// out), or -1 where the tap falls in the padding. Pooling walks it
// directly; convolution builds no table (see lowering).
func windowOffsets(in, out, k, stride, pad []int) []int {
	rank := len(in)
	outVol, kVol := Volume(out), Volume(k)
	// The table and the three rank-sized scratch vectors are one allocation.
	buf := make([]int, outVol*kVol+3*rank)
	off, scratch := buf[:outVol*kVol], buf[outVol*kVol:]
	o, t, inStr := scratch[:rank], scratch[rank:2*rank], scratch[2*rank:]
	fillStrides(inStr, in)
	for m := 0; m < outVol; m++ {
		row := off[m*kVol : (m+1)*kVol]
		for ki := range row {
			at := 0
			for d := range in {
				pos := o[d]*stride[d] - pad[d] + t[d]
				if pos < 0 || pos >= in[d] {
					at = -1
					break
				}
				at += pos * inStr[d]
			}
			row[ki] = at
			advance(t, k) // wraps back to the first tap after the last
		}
		advance(o, out)
	}
	return off
}

// advance steps idx to the next multi-index of shape in row-major order,
// wrapping to all zeros after the last.
func advance(idx, shape []int) {
	for d := len(idx) - 1; d >= 0; d-- {
		if idx[d]++; idx[d] < shape[d] {
			return
		}
		idx[d] = 0
	}
}
