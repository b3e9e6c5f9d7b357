package dlb

import "math"

// Imbalance returns (max-min)/max over the given loads (0 when all
// zero): the scale-free measure the balance properties are stated in.
func Imbalance(works []float64) float64 {
	if len(works) == 0 {
		return 0
	}
	maxW, minW := works[0], works[0]
	for _, w := range works[1:] {
		maxW = math.Max(maxW, w)
		minW = math.Min(minW, w)
	}
	if maxW <= 0 {
		return 0
	}
	return (maxW - minW) / maxW
}

// mustPolicy builds the named policy as its concrete type, so tests can
// also observe its flow memory; a wrong name is a bug in the test.
func mustPolicy(name string) *policy {
	b, err := NewPolicy(name)
	if err != nil {
		panic(err)
	}
	return b.(*policy)
}
