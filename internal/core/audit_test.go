package core

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestAuditJournal(t *testing.T) {
	e := newVentureEngine(t, nil)
	log := &AuditLog{Clock: func() time.Time { return time.Unix(1_000_000, 0) }}
	e.SetAudit(log)
	if e.Audit() != log {
		t.Fatal("Audit() should return the attached journal")
	}

	req := Request{User: "mark", Query: ventureQuery, Purpose: "investment", MinFraction: 1.0}
	resp, err := e.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate + Propose recorded.
	if log.Len() != 2 {
		t.Fatalf("events = %d, want 2", log.Len())
	}
	ev := log.Events()
	if ev[0].Kind != AuditEvaluate || ev[0].User != "mark" || ev[0].Withheld != 1 {
		t.Fatalf("event 0 = %+v", ev[0])
	}
	if ev[1].Kind != AuditPropose || ev[1].Cost <= 0 {
		t.Fatalf("event 1 = %+v", ev[1])
	}
	if ev[0].Seq != 1 || ev[1].Seq != 2 {
		t.Fatalf("sequence numbers: %d, %d", ev[0].Seq, ev[1].Seq)
	}
	if !ev[0].Time.Equal(time.Unix(1_000_000, 0)) {
		t.Fatal("clock override ignored")
	}

	if err := e.Apply(resp.Proposal); err != nil {
		t.Fatal(err)
	}
	applies := log.ByKind(AuditApply)
	if len(applies) != 1 {
		t.Fatalf("apply events = %d", len(applies))
	}
	if applies[0].User != "mark" || applies[0].Purpose != "investment" {
		t.Fatalf("apply attribution = %+v", applies[0])
	}
	if got := log.TotalImprovementSpend(); got != applies[0].Cost {
		t.Fatalf("spend = %v, want %v", got, applies[0].Cost)
	}
	improved := log.ImprovedTuples()
	if len(improved) != 1 {
		t.Fatalf("improved tuples = %v", improved)
	}

	// Event rendering.
	if s := ev[0].String(); !strings.Contains(s, "evaluate") || !strings.Contains(s, "withheld=1") {
		t.Errorf("event string = %q", s)
	}
	if s := applies[0].String(); !strings.Contains(s, "apply") || !strings.Contains(s, "cost=") {
		t.Errorf("apply string = %q", s)
	}
	if AuditEvaluate.String() != "evaluate" || AuditPropose.String() != "propose" || AuditApply.String() != "apply" {
		t.Error("kind names")
	}
}

func TestAuditDetachedIsSilent(t *testing.T) {
	e := newVentureEngine(t, nil)
	// No journal attached: everything still works.
	resp, err := e.Evaluate(Request{User: "mark", Query: ventureQuery, Purpose: "investment", MinFraction: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Apply(resp.Proposal); err != nil {
		t.Fatal(err)
	}
}

// TestAuditUserTailMatchesFilterThenTrim holds UserTail to what
// /v1/audit computed before it existed: copy the whole journal, keep
// the user's events, then trim to the last limit. Users interleave
// irregularly so a tail crosses other users' runs.
func TestAuditUserTailMatchesFilterThenTrim(t *testing.T) {
	log := &AuditLog{}
	users := []string{"sue", "mark", "sue", "ann", "ann", "sue", "mark", "sue", "sue", "ann", "mark", "sue"}
	for i, u := range users {
		log.record(AuditEvent{Kind: AuditEventKind(i % 5), User: u, Query: fmt.Sprintf("q%d", i)})
	}
	for _, user := range []string{"sue", "mark", "ann", "nobody"} {
		var mine []AuditEvent
		for _, ev := range log.Events() {
			if ev.User == user {
				mine = append(mine, ev)
			}
		}
		for _, limit := range []int{1, 2, 3, 6, 7, 50} {
			want := mine
			if len(want) > limit {
				want = want[len(want)-limit:]
			}
			got, total := log.UserTail(user, limit)
			if total != len(mine) {
				t.Errorf("%s limit %d: total %d, want %d", user, limit, total, len(mine))
			}
			if len(got) != len(want) {
				t.Fatalf("%s limit %d: %d events, want %d", user, limit, len(got), len(want))
			}
			for i := range got {
				if got[i].Seq != want[i].Seq || got[i].Query != want[i].Query || got[i].Kind != want[i].Kind {
					t.Errorf("%s limit %d: event %d is %v, want %v", user, limit, i, got[i], want[i])
				}
			}
		}
	}
}

func TestReportWithLineage(t *testing.T) {
	e := newVentureEngine(t, nil)
	resp, err := e.Evaluate(Request{User: "sue", Query: ventureQuery, Purpose: "analysis"})
	if err != nil {
		t.Fatal(err)
	}
	rep := resp.ReportWithLineage()
	if !strings.Contains(rep, "lineage") {
		t.Fatalf("missing lineage column:\n%s", rep)
	}
	// The released row's lineage is (t2 | t3) & t4 in catalog-assigned
	// variables (paper's (p02∨p03)∧p13 shape: an OR and an AND).
	if !strings.Contains(rep, "|") || !strings.Contains(rep, "&") {
		t.Fatalf("lineage formula not rendered:\n%s", rep)
	}
	// Plain report has no lineage column.
	if strings.Contains(resp.Report(), "lineage") {
		t.Fatal("plain report should not include lineage")
	}
}
