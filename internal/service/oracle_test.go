//go:build mdworm_oracle

package service

// oracleBuild reports the mdworm_oracle build tag, under which core shares
// no fabric between configurations.
const oracleBuild = true
