package nn

// TrainBatch is the fused step Dense.Fit hands Loop, exposed so that the
// oracle in the external test package can run it in a Loop whose Adam it
// keeps.
func (d *Dense) TrainBatch(opt *Adam, xs [][]float64, ys []float64, batch []int) (float64, error) {
	return d.trainBatch(opt, xs, ys, batch)
}

// Moments returns Adam's first and second moments, one slice per slot.
func (a *Adam) Moments() (m, v [][]float64) { return a.m, a.v }
