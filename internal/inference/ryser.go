package inference

import "math/bits"

// PermanentRyser computes the permanent of a square matrix with Ryser's
// inclusion–exclusion formula over column subsets, walked in Gray-code
// order so each step updates the row sums in O(k):
//
//	perm(A) = (−1)^k Σ_{S⊆[k]} (−1)^{|S|} Π_i Σ_{j∈S} a_ij
//
// It is exponential (O(2^k·k)) and serves as an independent oracle for
// the multiset DP in Exact; production code uses the DP, which exploits
// repeated columns.
func PermanentRyser(a [][]float64) float64 {
	k := len(a)
	if k == 0 {
		return 1
	}
	if k > 30 {
		panic("inference: PermanentRyser limited to k <= 30")
	}
	rowSum := make([]float64, k)
	sum := 0.0
	prev := uint(0)
	for g := uint(1); g < 1<<uint(k); g++ {
		gray := g ^ (g >> 1)
		changed := gray ^ prev
		col := bits.TrailingZeros(changed)
		if gray&changed != 0 {
			for i := 0; i < k; i++ {
				rowSum[i] += a[i][col]
			}
		} else {
			for i := 0; i < k; i++ {
				rowSum[i] -= a[i][col]
			}
		}
		prev = gray
		prod := 1.0
		for i := 0; i < k; i++ {
			prod *= rowSum[i]
		}
		if bits.OnesCount(gray)%2 == k%2 {
			sum += prod
		} else {
			sum -= prod
		}
	}
	return sum
}

// Factorial returns n! as a float64 (exact through n = 170).
func Factorial(n int) float64 {
	f := 1.0
	for i := 2; i <= n; i++ {
		f *= float64(i)
	}
	return f
}

// PermanentFromGroup builds the k×k matrix whose (j, c)-th entry is
// tuple j's prior on the sensitive value occupying column slot c (the
// multiset S expanded with repetition) and returns its permanent via
// Ryser. perm = GroupLikelihood · Π n_i!.
func PermanentFromGroup(priors [][]float64, svals []int) float64 {
	k := len(priors)
	mat := make([][]float64, k)
	for j := 0; j < k; j++ {
		mat[j] = make([]float64, k)
		for c, s := range svals {
			mat[j][c] = priors[j][s]
		}
	}
	return PermanentRyser(mat)
}
