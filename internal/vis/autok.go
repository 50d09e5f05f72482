package vis

// AutoK picks the number of representative trends from the data rather than
// a fixed k — the paper's future-work item "automatically figure out the
// right number of representative trends based on data characteristics"
// (Section 10.1). It runs k-means for k = 1..kMax and selects the elbow of
// the inertia curve: the k maximizing the normalized second difference of
// within-cluster variance (a knee detector that needs no tuning parameter).
func AutoK(vs []*Visualization, kMax int, m Metric, seed int64) int {
	n := len(vs)
	if n == 0 {
		return 0
	}
	if kMax > n {
		kMax = n
	}
	if kMax < 1 {
		kMax = 1
	}
	vectors := vectorize(vs, m)
	inertia := make([]float64, kMax+1)
	for k := 1; k <= kMax; k++ {
		inertia[k] = KMeans(vectors, k, seed, 50).Inertia
	}
	if inertia[1] == 0 {
		// All shapes identical (after normalization): one trend suffices.
		return 1
	}
	// If even kMax leaves most variance unexplained there is no elbow;
	// otherwise find the largest drop-off in marginal gain.
	bestK, bestKnee := 1, 0.0
	for k := 2; k < kMax; k++ {
		gainHere := inertia[k-1] - inertia[k]
		gainNext := inertia[k] - inertia[k+1]
		knee := (gainHere - gainNext) / inertia[1]
		if knee > bestKnee {
			bestK, bestKnee = k, knee
		}
	}
	if bestKnee <= 0 {
		return 1
	}
	return bestK
}
