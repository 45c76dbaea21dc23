package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"mdworm/internal/core"
)

// Hash returns the content address of a configuration: the hex SHA-256 of
// the canonical encoding of its fully-resolved form (core.Config.Canonicalize
// applies every default and buffer-size normalization New would apply, and
// validates the result). Two configs that differ only in defaulted fields,
// or in topology fields their kind ignores, hash identically; any semantic
// difference changes the hash. The canonical form is returned alongside so
// callers build the simulator from exactly the hashed config. Canonicalize
// reads the fabric the process shares for the config's shape, so a Hash
// builds a fabric only the first time the process sees its shape.
//
// The encoding is json.Marshal of the canonical core.Config: struct fields
// marshal in declaration order, so the byte stream — and the hash — is
// deterministic for a given binary, and the Seed is part of the Config, so
// it is part of the address.
func Hash(cfg core.Config) (string, core.Config, error) {
	canon, err := cfg.Canonicalize()
	if err != nil {
		return "", core.Config{}, err
	}
	b, err := json.Marshal(canon)
	if err != nil {
		return "", core.Config{}, fmt.Errorf("service: encoding config: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), canon, nil
}
