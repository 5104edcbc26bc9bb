package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"pcqe/internal/conf"
	"pcqe/internal/lineage"
	"pcqe/internal/relation"
	"pcqe/internal/server"
	"pcqe/internal/sql"
)

// refRow is one row of a reference answer: the row's value key and its
// lineage-derived confidence.
type refRow struct {
	Key  string
	Conf float64
}

func rowKey(values []relation.Value) string {
	keys := make([]string, len(values))
	for i, v := range values {
		keys[i] = v.Key()
	}
	return strings.Join(keys, "|")
}

func sortRows(rows []refRow) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Key != rows[j].Key {
			return rows[i].Key < rows[j].Key
		}
		return rows[i].Conf < rows[j].Conf
	})
}

// referenceRows evaluates a query in-process at one committed version,
// without the engine's plan or confidence caches: the full result with
// every row's confidence, before any policy filter.
func referenceRows(l *local, query string, version int64) ([]refRow, error) {
	snap, err := l.cat.SnapshotAt(version)
	if err != nil {
		return nil, fmt.Errorf("benchmark: reference: %w", err)
	}
	defer snap.Release()
	tuples, _, err := sql.QuerySnap(snap, query)
	if err != nil {
		return nil, fmt.Errorf("benchmark: reference: %w", err)
	}
	rows := make([]refRow, len(tuples))
	for i, t := range tuples {
		rows[i] = refRow{Key: rowKey(t.Values), Conf: snap.Confidence(t)}
	}
	return rows, nil
}

// compareAnswer checks a served answer against the reference result at
// the same version: every released confidence clears beta, the released
// multiset (values, confidence to 1e-9) is exactly the reference rows
// above beta, and released plus withheld account for every row.
func compareAnswer(ref []refRow, beta float64, released []json.RawMessage, withheld int) error {
	got := make([]refRow, len(released))
	for i, raw := range released {
		var row server.WireRow
		if err := json.Unmarshal(raw, &row); err != nil {
			return fmt.Errorf("released row %d: %w", i, err)
		}
		if !(row.Confidence > beta) {
			return fmt.Errorf("released row %d has confidence %g, not above the session's %g", i, row.Confidence, beta)
		}
		got[i] = refRow{Key: rowKey(row.Values), Conf: row.Confidence}
	}
	var want []refRow
	for _, r := range ref {
		if r.Conf > beta {
			want = append(want, r)
		}
	}
	if len(got)+withheld != len(ref) {
		return fmt.Errorf("released %d + withheld %d rows, reference has %d", len(got), withheld, len(ref))
	}
	if len(got) != len(want) {
		return fmt.Errorf("released %d rows, reference releases %d", len(got), len(want))
	}
	sortRows(got)
	sortRows(want)
	for i := range got {
		if got[i].Key != want[i].Key || math.Abs(got[i].Conf-want[i].Conf) > conf.VerifyEps {
			return fmt.Errorf("released row %q at %g, reference has %q at %g", got[i].Key, got[i].Conf, want[i].Key, want[i].Conf)
		}
	}
	return nil
}

// replayApplies commits every acknowledged apply on the reference, in
// version order. The reference commits one version per apply, so a
// version that differs from the daemon's means the single writer's
// versions had a gap (or an apply the client never saw acknowledged).
func replayApplies(l *local, samples []sample) error {
	var applies []*sample
	for i := range samples {
		if s := &samples[i]; s.Kind == kindApply && s.Fail == "" {
			applies = append(applies, s)
		}
	}
	sort.Slice(applies, func(i, j int) bool { return applies[i].Version < applies[j].Version })
	for _, s := range applies {
		x := l.cat.Begin()
		for _, inc := range s.Increments {
			if cur, ok := x.ConfidenceOf(lineage.Var(inc.Var)); ok && conf.GE(cur, inc.To) {
				continue
			}
			if err := x.SetConfidence(lineage.Var(inc.Var), inc.To); err != nil {
				x.Rollback()
				return fmt.Errorf("benchmark: replaying apply at version %d: %w", s.Version, err)
			}
		}
		v, err := x.Commit()
		if err != nil {
			return fmt.Errorf("benchmark: replaying apply at version %d: %w", s.Version, err)
		}
		if v != s.Version {
			s.Fail = fmt.Sprintf("apply committed version %d, gap-free replay reaches %d", s.Version, v)
		}
	}
	return nil
}

// verify runs the post-run checks over every sample and marks the ones
// that fail: apply versions replay gap-free, a connection's read
// version never decreases, and each sampled in-window answer equals the
// reference at its version. It returns how many answers were compared.
func verify(l *local, samples []sample, inWindow func(*sample) bool) (int, error) {
	if err := replayApplies(l, samples); err != nil {
		return 0, err
	}
	lastVersion := map[int]int64{}
	var sampled []*sample
	for i := range samples {
		s := &samples[i]
		if s.Fail != "" || s.Version == 0 || s.Kind == kindApply {
			continue
		}
		if s.Version < lastVersion[s.Conn] {
			s.Fail = fmt.Sprintf("read version %d after %d on one connection", s.Version, lastVersion[s.Conn])
			continue
		}
		lastVersion[s.Conn] = s.Version
		if s.Rows != nil && inWindow(s) {
			sampled = append(sampled, s)
		}
	}

	// Two workers: reference evaluation is the one expensive step, the
	// catalog is safe for concurrent snapshot reads, and the host has two
	// cores idle once the window has closed.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(sampled); i += 2 {
				s := sampled[i]
				ref, err := referenceRows(l, s.SQL, s.Version)
				if err != nil {
					errs[w] = err
					return
				}
				if err := compareAnswer(ref, betaOf(s.Sess), s.Rows, s.Withheld); err != nil {
					s.Fail = "wrong answer: " + err.Error()
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return len(sampled), nil
}
