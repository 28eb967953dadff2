package dist

import "fmt"

// ExampleNewRankCurve converts raw download counts into the rank curve
// form every analysis consumes: the apps with at least one download,
// most downloaded first.
func ExampleNewRankCurve() {
	var positive []float64
	for _, d := range []int64{10, 500, 0, 60} {
		if d > 0 {
			positive = append(positive, float64(d))
		}
	}
	curve := NewRankCurve(positive)
	fmt.Println(len(curve.Downloads), "downloaded apps, top =", curve.Top())
	// Output:
	// 3 downloaded apps, top = 500
}
