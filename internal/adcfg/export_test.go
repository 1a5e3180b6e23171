package adcfg

// Dense reports whether the histogram holds dense counts.
func (e *EvidenceHist) Dense() bool { return e.dense != nil }
