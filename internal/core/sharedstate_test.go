package core

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestEngineSharedStateFreedom is the dynamic counterpart of the
// sharedstate analyzer for the engine layer: fully independent engines
// (own catalog, own policy store, own caches) evaluating concurrently
// share no package-level state, so sessions cannot interfere — every
// engine must keep returning exactly its own catalog's answer, with
// the policy filter applied. CI's resilience job runs this under -race.
func TestEngineSharedStateFreedom(t *testing.T) {
	const sessions = 8
	engines := make([]*Engine, sessions)
	for i := range engines {
		engines[i] = newVentureEngine(t, nil)
	}
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i, e := range engines {
		wg.Add(1)
		go func(i int, e *Engine) {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				resp, err := e.Evaluate(Request{User: "sue", Query: ventureQuery, Purpose: "analysis"})
				if err != nil {
					errs <- fmt.Errorf("engine %d iteration %d: %w", i, k, err)
					return
				}
				if !resp.PolicyApplied || resp.Threshold != 0.05 {
					errs <- fmt.Errorf("engine %d lost its policy: applied=%v β=%v", i, resp.PolicyApplied, resp.Threshold)
					return
				}
				if resp.Released.Len() != 1 || len(resp.Withheld) != 0 ||
					math.Abs(resp.Released.At(0).Confidence-0.058) > 1e-9 {
					errs <- fmt.Errorf("engine %d drifted: released=%d withheld=%d", i, resp.Released.Len(), len(resp.Withheld))
					return
				}
			}
		}(i, e)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
