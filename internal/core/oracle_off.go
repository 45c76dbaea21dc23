//go:build !mdworm_oracle

package core

// reuse reports whether fabrics are shared (see buildTopology) and released
// simulators rebuilt (see Release); the mdworm_oracle build tag turns it off.
const reuse = true
