package fault

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"pdcquery/internal/cluster"
	"pdcquery/internal/telemetry"
)

// Cluster chaos: the zero-wrong-answers invariant under membership
// faults. A seeded schedule interleaves the query corpus with member
// kills (no goodbye, some fired mid-query from a racing goroutine),
// joins (live rebalance with extent transfer), and drains (graceful
// departure). Every query must return the oracle's selection
// byte-identically or fail with a recognized typed error; after the
// schedule settles, a full verification pass insists the cluster holds
// every replica its placement assigns and answers the whole corpus
// with zero errors.

// ClusterChaosOptions sizes the cluster and workload a seed runs
// against.
type ClusterChaosOptions struct {
	// Members is the initial cluster size (default 3).
	Members int
	// R is the replication factor (default 2).
	R int
	// Particles is the VPIC dataset size (default 6000).
	Particles int
	// Queries is the number of queries issued during the fault phase
	// (default 12; the workload cycles through the single-object set).
	Queries int
}

// DefaultClusterChaosOptions returns the standard configuration.
func DefaultClusterChaosOptions() ClusterChaosOptions {
	return ClusterChaosOptions{Members: 3, R: 2, Particles: 6000, Queries: 12}
}

// ClusterChaosResult summarizes one seed's run.
type ClusterChaosResult struct {
	// Masked counts queries answered byte-identically to the oracle.
	Masked int
	// Typed counts queries that failed with a recognized typed error.
	Typed int
	// Kills, Joins, Drains count the membership faults that fired.
	Kills, Joins, Drains int
	// Errors holds the typed errors, in query order (nil for successes).
	Errors []error
}

// clusterTypedError extends the chaos vocabulary with the cluster
// layer's own typed failures: epoch mismatches from rebalances racing
// queries, catalog rejections, and the session's exhausted-retries
// wrapper.
func clusterTypedError(err error) bool {
	if typedError(err) {
		return true
	}
	msg := err.Error()
	for _, pat := range []string{
		"cluster:",       // session/member typed errors (incl. giving up)
		"catalog:",       // catalog error replies
		"epoch mismatch", // placement moved under the call
		"not serving at", // member ahead of or behind the stamped epoch
		"no serving members",
	} {
		if strings.Contains(msg, pat) {
			return true
		}
	}
	return false
}

// clusterAction is one slot of the seeded membership-fault schedule.
type clusterAction int

const (
	actNone  clusterAction = iota
	actKill                // crash a member concurrently with the query
	actJoin                // add a member (rebalance + extent transfer)
	actDrain               // gracefully retire a member
	numClusterActions
)

// RunClusterChaos executes one seed: boot a local cluster, import the
// oracle deployment, run the corpus with membership faults interleaved,
// then settle and verify. The returned error is non-nil only on an
// invariant violation (wrong answer, unrecognized error, lost extents,
// failed settle) or a harness failure.
func RunClusterChaos(seed uint64, opts ClusterChaosOptions) (*ClusterChaosResult, error) {
	if opts.Members <= 0 {
		opts.Members = 3
	}
	if opts.R <= 0 {
		opts.R = 2
	}
	if opts.Particles <= 0 {
		opts.Particles = 6000
	}
	if opts.Queries <= 0 {
		opts.Queries = 12
	}
	// The oracle: a plain in-proc deployment holding the same dataset.
	// Ground truth is computed on clean reads before the cluster exists.
	d, queries, truths, err := chaosDeployment(ChaosOptions{
		Servers: 2, Particles: opts.Particles, Queries: opts.Queries,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster chaos seed %d: setup: %w", seed, err)
	}
	defer d.Close()

	l, err := cluster.StartLocal(cluster.LocalOptions{Members: opts.Members, R: opts.R, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("cluster chaos seed %d: start: %w", seed, err)
	}
	defer l.Close()
	// A patient session: kills commit a new view in member/catalog
	// goroutines, so retries pace on wall time instead of spinning
	// through their attempt budget before failover lands.
	s, err := cluster.DialSession(cluster.SessionOptions{
		Net:         l.Net(),
		CatalogAddr: l.CatalogAddr(),
		MaxAttempts: 40,
		RetryWait:   2 * time.Millisecond,
		Sleeper:     telemetry.WallSleep,
		Clock:       telemetry.Wall,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster chaos seed %d: session: %w", seed, err)
	}
	defer s.Close()
	if err := s.Import(d); err != nil {
		return nil, fmt.Errorf("cluster chaos seed %d: import: %w", seed, err)
	}

	rng := rand.New(rand.NewSource(int64(seed)))
	res := &ClusterChaosResult{Errors: make([]error, len(queries))}
	alive := opts.Members
	const maxMembers = 6
	for i, q := range queries {
		// Roll a membership fault for this slot. Kills and drains keep at
		// least two members so a settled cluster (R=2, transfers complete
		// before each commit) never loses the last copy of an extent.
		killed := make(chan struct{})
		fired := actNone
		switch act := clusterAction(rng.Intn(int(numClusterActions))); {
		case act == actKill && alive > 2:
			ids := l.MemberIDs()
			victim := ids[rng.Intn(len(ids))]
			fired = actKill
			res.Kills++
			alive--
			// Mid-query: the crash races the broadcast below.
			go func() {
				_ = l.Crash(victim)
				close(killed)
			}()
		case act == actJoin && alive < maxMembers:
			if _, err := l.AddMember(); err != nil {
				return nil, fmt.Errorf("cluster chaos seed %d: join: %w", seed, err)
			}
			fired = actJoin
			res.Joins++
			alive++
		case act == actDrain && alive > 2:
			ids := l.MemberIDs()
			victim := ids[rng.Intn(len(ids))]
			if err := l.Drain(victim, 10*time.Second); err != nil {
				return nil, fmt.Errorf("cluster chaos seed %d: drain member %d: %w", seed, victim, err)
			}
			fired = actDrain
			res.Drains++
			alive--
		}

		out, err := s.Run(q, chaosForce(seed, i))
		if err != nil {
			if !clusterTypedError(err) {
				return nil, fmt.Errorf("cluster chaos seed %d: query %d: unrecognized error (invariant: typed or masked): %w", seed, i, err)
			}
			res.Typed++
			res.Errors[i] = err
		} else {
			if !bytes.Equal(out.Sel.Encode(), truths[i].Encode()) {
				return nil, fmt.Errorf("cluster chaos seed %d: query %d: WRONG ANSWER: %d hits, oracle %d", seed, i, out.Sel.NHits, truths[i].NHits)
			}
			res.Masked++
		}

		// Let the fault settle before the next slot: the schedule is then
		// a sequence of single-failure episodes, which is what the R=2
		// no-data-loss argument needs.
		if fired == actKill {
			<-killed
		}
		if fired != actNone {
			if err := l.WaitMembers(alive, 10*time.Second); err != nil {
				return nil, fmt.Errorf("cluster chaos seed %d: settle after query %d: %w", seed, i, err)
			}
		}
	}

	// Settled verification: every member holds every extent placement
	// assigns it, and the whole corpus answers clean — no typed errors
	// allowed once the membership stops churning.
	s.Invalidate()
	if err := s.Verify(d); err != nil {
		return nil, fmt.Errorf("cluster chaos seed %d: settled verify: %w", seed, err)
	}
	for i, q := range queries {
		out, err := s.Run(q, chaosForce(seed, i))
		if err != nil {
			return nil, fmt.Errorf("cluster chaos seed %d: settled query %d: %w", seed, i, err)
		}
		if !bytes.Equal(out.Sel.Encode(), truths[i].Encode()) {
			return nil, fmt.Errorf("cluster chaos seed %d: settled query %d: WRONG ANSWER", seed, i)
		}
	}
	return res, nil
}
