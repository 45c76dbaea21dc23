//go:build !mdworm_oracle

package core

// shareFabrics reports whether configurations of one shape share one built
// fabric (see buildTopology); the mdworm_oracle build tag turns it off.
const shareFabrics = true
