package sim

// Rand is a small, seeded, deterministic pseudo-random generator
// (SplitMix64). The simulator avoids math/rand so that every model owns
// an independent stream and results never depend on global state.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. Seed zero is valid.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). It returns 0 when n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a value in [0, n). It returns 0 when n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(r.Uint64() % uint64(n))
}

// Duration returns a duration uniformly distributed in [0, d).
func (r *Rand) Duration(d Time) Time {
	if d <= 0 {
		return 0
	}
	return Time(r.Int63n(int64(d)))
}
