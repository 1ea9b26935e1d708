package harness

import (
	"lintime/internal/quorum"
	"lintime/internal/simtime"
)

// QuorumConfig returns the protocol configuration the quorum backend
// builds the named mutant with.
func QuorumConfig(p simtime.Params, mutant string) (quorum.Config, error) {
	b, _ := Lookup(AlgQuorum)
	m, err := b.mutant(mutant)
	return quorumConfig(p, m), err
}
