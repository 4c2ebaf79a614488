package memocache

// Sampler picks the replayable steps a self-checking engine re-executes
// slow: a deterministic xorshift stream, so a run's checked steps are a
// function of its seed alone and survive checkpoint/restore as one word.
type Sampler uint64

// defaultSeed replaces a zero seed, which would pin xorshift at zero.
const defaultSeed = 0xD1B54A32D192ED03

// NewSampler returns a sampler seeded with seed (0 = fixed default).
func NewSampler(seed uint64) Sampler {
	if seed == 0 {
		seed = defaultSeed
	}
	return Sampler(seed)
}

// Due reports whether the next step is checked, for a checked fraction f
// (0..1). Fractions at or outside the bounds never advance the stream.
func (s *Sampler) Due(f float64) bool {
	if f <= 0 {
		return false
	}
	if f >= 1 {
		return true
	}
	x := uint64(*s)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = Sampler(x)
	return float64(x>>11)/(1<<53) < f
}
