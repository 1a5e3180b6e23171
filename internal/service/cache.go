package service

import (
	"crypto/sha256"
	"encoding/hex"

	"owl/internal/cluster"
	"owl/internal/core"
)

// CacheKey identifies a detection result in the manager's report cache:
// the workload name plus every option that influences the outcome (see
// cluster.OptionsKey) — including the evidence configuration, since mode,
// thresholds, and the early-stop policy all change the report. Keying on
// the name is safe because a manager resolves its workload registry once,
// in NewManager, so within one process a name always maps to the same
// kernels; only the fleet cache, which spans processes, needs
// cluster.Fingerprint's content key.
func CacheKey(program string, opts core.Options) string {
	sum := sha256.Sum256([]byte(program + "|" + cluster.OptionsKey(opts)))
	return hex.EncodeToString(sum[:])
}
