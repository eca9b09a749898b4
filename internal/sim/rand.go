package sim

// Rand is a small deterministic pseudo-random source (splitmix64 seeded
// xorshift64*). It exists so simulations never depend on math/rand global
// state or Go version differences; the same seed always yields the same
// stream.
type Rand struct {
	state uint64
}

// NewRand returns a generator for the given seed. Seed 0 is remapped to a
// fixed constant because xorshift has an all-zero fixed point.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	// Run the seed through splitmix64 once to decorrelate small seeds.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return &Rand{state: z}
}

// Uint64 returns the next value in the stream.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// UniformAround returns a uniform integer in [mean/2, 3*mean/2), i.e. a
// uniformly distributed delay with the given mean, matching the paper's
// "uniformly distributed random variable with an average of T_betw cycles".
func (r *Rand) UniformAround(mean uint64) uint64 {
	if mean == 0 {
		return 0
	}
	lo := mean / 2
	return lo + r.Uint64n(mean)
}
