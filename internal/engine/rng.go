// Package engine provides the cycle-driven simulation kernel: deterministic
// random numbers, unidirectional links with latency and credit-based flow
// control, and the simulation loop with a progress watchdog.
package engine

import "slices"

// RNG is a small, fast, deterministic pseudo-random generator (splitmix64).
// Every stochastic decision in the simulator draws from an RNG seeded from
// the run configuration, so identical configurations replay identically.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with the given value.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Fork derives an independent stream identified by tag, leaving the parent
// stream untouched. Components fork per-entity streams so that adding a
// component does not perturb the draws of the others.
func (r *RNG) Fork(tag uint64) *RNG {
	mixed := splitmix(r.state + 0x9e3779b97f4a7c15*(tag+1))
	return &RNG{state: mixed}
}

func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("engine: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Sample appends k distinct uniform values from [0, n) other than excl
// (-1 excludes nothing) to dst and returns the extended slice. pool is
// caller-owned scratch: Sample rewrites it with the candidate population on
// every call and keeps its storage, so a caller that draws repeatedly into
// storage it reuses allocates nothing. It panics if fewer than k values are
// available.
func (r *RNG) Sample(dst []int, n, k, excl int, pool *[]int) []int {
	avail := n
	if excl >= 0 && excl < n {
		avail--
	}
	if k > avail {
		panic("engine: Sample k exceeds available population")
	}
	// Partial Fisher-Yates over the allowed population.
	p := (*pool)[:0]
	for i := 0; i < n; i++ {
		if i != excl {
			p = append(p, i)
		}
	}
	*pool = p
	dst = slices.Grow(dst, k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(len(p)-i)
		p[i], p[j] = p[j], p[i]
		dst = append(dst, p[i])
	}
	return dst
}
