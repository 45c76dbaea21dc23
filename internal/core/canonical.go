package core

// Canonicalize returns the fully-resolved form of the configuration: its
// fabric is looked up in the process's shared fabrics (and built on first
// use), the topology fields its kind ignores are zeroed, buffer parameters
// are raised to fit the workload exactly as New would raise them, and the
// result is validated. Two configurations that describe the same simulated
// system — for example one that spells out a default buffer size and one
// that leaves it to be raised by normalization, or an irregular tree that
// carries a stray Arity — canonicalize to identical values, which makes the
// canonical form a sound cache key: New(c) and New(canonical(c)) build the
// same system, and any semantic difference between two configs survives
// into their canonical forms.
func (c Config) Canonicalize() (Config, error) {
	net, err := c.buildTopology()
	if err != nil {
		return Config{}, err
	}
	if _, err := c.normalize(net); err != nil {
		return Config{}, err
	}
	return c, nil
}
