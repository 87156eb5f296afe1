package telemetry

// DecodeInfo decodes one Info from the front of b, returning the number of
// bytes consumed.
func DecodeInfo(b []byte) (Info, int, error) {
	var i Info
	n, err := i.decode(b)
	return i, n, err
}
