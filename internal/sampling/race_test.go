//go:build race

package sampling

// Under the race detector sync.Pool drops a share of what is put back, on
// purpose, so the pooled scratch is reallocated and allocation guards do
// not hold.
func init() { raceEnabled = true }
