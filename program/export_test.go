package program

// BCDepths decodes per-vertex depths from forward-phase properties.
func BCDepths(forwardProps []Prop) []uint16 {
	out := make([]uint16, len(forwardProps))
	for i, p := range forwardProps {
		out[i] = bcDepth(p)
	}
	return out
}

// BCSigmas decodes per-vertex shortest-path counts from forward-phase
// properties.
func BCSigmas(forwardProps []Prop) []uint64 {
	out := make([]uint64, len(forwardProps))
	for i, p := range forwardProps {
		out[i] = bcSigma(p)
	}
	return out
}
