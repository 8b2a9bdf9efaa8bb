package xrand

import "math"

// Norm returns a standard normal variate using the Marsaglia polar method.
func (r *Rand) Norm() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// NormMeanStd returns a normal variate with the given mean and standard
// deviation.
func (r *Rand) NormMeanStd(mean, std float64) float64 {
	return mean + std*r.Norm()
}

// Geometric returns the number of failures before the first success of a
// Bernoulli(p) sequence, i.e. a value g >= 0 with P(g = t) = (1-p)^t * p.
// It panics if p <= 0 or p > 1.
func (r *Rand) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("xrand: Geometric with p out of (0, 1]")
	}
	if p == 1 {
		return 0
	}
	return r.geometric(math.Log1p(-p))
}

// geometric is Geometric's inversion for p in (0, 1), given lq =
// ln(1−p): g = floor(ln(u) / ln(1−p)).
func (r *Rand) geometric(lq float64) int {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return int(math.Floor(math.Log(u) / lq))
}

// GeometricHalf returns a slot index j >= 0 with P(j = t) = 2^{-(t+1)},
// the distribution used by lottery-frame (LOF/PET-style) hashing. It is
// equivalent to counting leading failures of a fair coin.
func (r *Rand) GeometricHalf() int {
	j := 0
	for {
		bits := r.Uint64()
		for b := 0; b < 64; b++ {
			if bits&1 == 1 {
				return j
			}
			bits >>= 1
			j++
		}
	}
}

// Binomial returns a Binomial(n, p) variate. It is exact (not a normal
// approximation): small expectations use geometric-skip inversion, large
// expectations use the BTRS transformed-rejection sampler of Hörmann (1993).
// It panics if n < 0 or p outside [0, 1].
func (r *Rand) Binomial(n int, p float64) int {
	if n < 0 || p < 0 || p > 1 {
		panic("xrand: Binomial with invalid parameters")
	}
	if n == 0 || p == 0 {
		return 0
	}
	if p == 1 {
		return n
	}
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	if float64(n)*p < 10 {
		return r.binomialInversion(n, p)
	}
	return r.binomialBTRS(n, p)
}

// binomialInversion counts successes by skipping over failures with
// geometric jumps; O(np) expected time, exact. Every jump shares one
// ln(1−p).
func (r *Rand) binomialInversion(n int, p float64) int {
	lq := math.Log1p(-p)
	count := 0
	i := 0
	for {
		i += r.geometric(lq) + 1
		if i > n {
			return count
		}
		count++
	}
}

// binomialBTRS implements the BTRS algorithm (Hörmann, "The generation of
// binomial random variates", JSCS 1993), exact for np >= 10 and p <= 0.5.
// Most draws end in the squeeze, so the acceptance test's constants (two
// Lgamma and a Log) are worked out only when a draw first needs them.
func (r *Rand) binomialBTRS(n int, p float64) int {
	nf := float64(n)
	spq := math.Sqrt(nf * p * (1 - p))
	b := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := nf*p + 0.5
	vr := 0.92 - 4.2/b
	urvr := 0.86 * vr
	var alpha, lpq, m, h float64
	slow := false

	for {
		v := r.Float64()
		var u float64
		if v <= urvr {
			u = v/vr - 0.43
			return int(math.Floor((2*a/(0.5-math.Abs(u))+b)*u + c))
		}
		if v >= vr {
			u = r.Float64() - 0.5
		} else {
			u = v/vr - 0.93
			u = sign(u)*0.5 - u
			v = vr * r.Float64()
		}
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + c)
		if k < 0 || k > nf {
			continue
		}
		if !slow {
			alpha = (2.83 + 5.1/b) * spq
			lpq = math.Log(p / (1 - p))
			m = math.Floor((nf + 1) * p)
			h = lgamma(m+1) + lgamma(nf-m+1)
			slow = true
		}
		v = v * alpha / (a/(us*us) + b)
		if math.Log(v) <= h-lgamma(k+1)-lgamma(nf-k+1)+(k-m)*lpq {
			return int(k)
		}
	}
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
