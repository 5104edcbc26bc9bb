package policy

import (
	"strings"
	"testing"
)

func newPaperStore(t *testing.T) *Store {
	t.Helper()
	r := NewRBAC()
	r.AddRole("secretary")
	r.AddRole("manager")
	pt := NewPurposeTree()
	if err := pt.Add("analysis", ""); err != nil {
		t.Fatal(err)
	}
	if err := pt.Add("investment", ""); err != nil {
		t.Fatal(err)
	}
	s := NewStore(r, pt)
	// P1 and P2 from the paper.
	if err := s.Add(ConfidencePolicy{Role: "secretary", Purpose: "analysis", Beta: 0.05}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(ConfidencePolicy{Role: "manager", Purpose: "investment", Beta: 0.06}); err != nil {
		t.Fatal(err)
	}
	if err := r.AssignUser("sue", "secretary"); err != nil {
		t.Fatal(err)
	}
	if err := r.AssignUser("mark", "manager"); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPaperPolicies(t *testing.T) {
	s := newPaperStore(t)
	// Secretary doing analysis: threshold 0.05; p38=0.058 passes.
	beta, ok := s.Threshold("sue", "analysis")
	if !ok || beta != 0.05 {
		t.Fatalf("secretary threshold = %v, %v", beta, ok)
	}
	if !(0.058 > beta) {
		t.Error("0.058 should pass the secretary policy")
	}
	// Manager doing investment: threshold 0.06; 0.058 fails.
	beta, ok = s.Threshold("mark", "investment")
	if !ok || beta != 0.06 {
		t.Fatalf("manager threshold = %v, %v", beta, ok)
	}
	if 0.058 > beta {
		t.Error("0.058 should fail the manager policy")
	}
	// No applicable policy: manager doing analysis.
	if _, ok := s.Threshold("mark", "analysis"); ok {
		t.Error("no policy should apply to manager/analysis")
	}
}

func TestThresholdTakesMaxOfApplicable(t *testing.T) {
	s := newPaperStore(t)
	// A second, stricter policy for secretaries on any purpose.
	if err := s.Add(ConfidencePolicy{Role: "secretary", Purpose: Root, Beta: 0.5}); err != nil {
		t.Fatal(err)
	}
	beta, ok := s.Threshold("sue", "analysis")
	if !ok || beta != 0.5 {
		t.Fatalf("threshold = %v, want max 0.5", beta)
	}
}

func TestPurposeTreeCoverage(t *testing.T) {
	pt := NewPurposeTree()
	if err := pt.Add("analysis", ""); err != nil {
		t.Fatal(err)
	}
	if err := pt.Add("trend-analysis", "analysis"); err != nil {
		t.Fatal(err)
	}
	if !pt.Covers("analysis", "trend-analysis") {
		t.Error("parent should cover child")
	}
	if pt.Covers("trend-analysis", "analysis") {
		t.Error("child should not cover parent")
	}
	if !pt.Covers(Root, "trend-analysis") {
		t.Error("root covers everything")
	}
	if !pt.Covers("analysis", "analysis") {
		t.Error("coverage is reflexive")
	}
	if pt.Covers("analysis", "unknown") {
		t.Error("unknown purposes are not covered")
	}
	if err := pt.Add("analysis", ""); err == nil {
		t.Error("duplicate purpose should fail")
	}
	if err := pt.Add("x", "nope"); err == nil {
		t.Error("unknown parent should fail")
	}
	if err := pt.Add("", ""); err == nil {
		t.Error("empty purpose should fail")
	}
	if len(pt.Purposes()) != 3 {
		t.Errorf("purposes = %v", pt.Purposes())
	}
}

func TestPolicyCoversDescendantPurpose(t *testing.T) {
	r := NewRBAC()
	r.AddRole("analyst")
	if err := r.AssignUser("amy", "analyst"); err != nil {
		t.Fatal(err)
	}
	pt := NewPurposeTree()
	if err := pt.Add("analysis", ""); err != nil {
		t.Fatal(err)
	}
	if err := pt.Add("trend-analysis", "analysis"); err != nil {
		t.Fatal(err)
	}
	s := NewStore(r, pt)
	if err := s.Add(ConfidencePolicy{Role: "analyst", Purpose: "analysis", Beta: 0.3}); err != nil {
		t.Fatal(err)
	}
	beta, ok := s.Threshold("amy", "trend-analysis")
	if !ok || beta != 0.3 {
		t.Fatalf("descendant purpose threshold = %v, %v", beta, ok)
	}
}

func TestRBACHierarchy(t *testing.T) {
	r := NewRBAC()
	r.AddRole("employee")
	r.AddRole("manager")
	r.AddRole("director")
	if err := r.AddInheritance("manager", "employee"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddInheritance("director", "manager"); err != nil {
		t.Fatal(err)
	}
	if err := r.AssignUser("dan", "director"); err != nil {
		t.Fatal(err)
	}
	// Transitive: director acts under employee.
	if !r.UserHasRole("dan", "employee") {
		t.Error("director should inherit employee")
	}
	roles := r.UserRoles("dan")
	if len(roles) != 3 {
		t.Errorf("dan's roles = %v", roles)
	}
	// Cycles rejected.
	if err := r.AddInheritance("employee", "director"); err == nil {
		t.Error("cycle should be rejected")
	}
	if err := r.AddInheritance("manager", "manager"); err == nil {
		t.Error("self inheritance should be rejected")
	}
	if err := r.AddInheritance("ghost", "manager"); err == nil {
		t.Error("unknown senior should be rejected")
	}
	if err := r.AddInheritance("manager", "ghost"); err == nil {
		t.Error("unknown junior should be rejected")
	}
	if err := r.AssignUser("x", "ghost"); err == nil {
		t.Error("assigning unknown role should fail")
	}
	if !r.Inherits("manager", "manager") {
		t.Error("Inherits is reflexive")
	}
}

func TestPolicyAppliesThroughRoleHierarchy(t *testing.T) {
	r := NewRBAC()
	r.AddRole("employee")
	r.AddRole("manager")
	if err := r.AddInheritance("manager", "employee"); err != nil {
		t.Fatal(err)
	}
	if err := r.AssignUser("mia", "manager"); err != nil {
		t.Fatal(err)
	}
	pt := NewPurposeTree()
	if err := pt.Add("reporting", ""); err != nil {
		t.Fatal(err)
	}
	s := NewStore(r, pt)
	// Policy targets the junior role; a manager also acts as employee.
	if err := s.Add(ConfidencePolicy{Role: "employee", Purpose: "reporting", Beta: 0.2}); err != nil {
		t.Fatal(err)
	}
	if beta, ok := s.Threshold("mia", "reporting"); !ok || beta != 0.2 {
		t.Fatalf("threshold = %v, %v", beta, ok)
	}
}

func TestStoreValidation(t *testing.T) {
	s := newPaperStore(t)
	if err := s.Add(ConfidencePolicy{Role: "ghost", Purpose: "analysis", Beta: 0.1}); err == nil {
		t.Error("unknown role should fail")
	}
	if err := s.Add(ConfidencePolicy{Role: "manager", Purpose: "ghost", Beta: 0.1}); err == nil {
		t.Error("unknown purpose should fail")
	}
	if err := s.Add(ConfidencePolicy{Role: "manager", Purpose: "investment", Beta: 1.0}); err == nil {
		t.Error("beta = 1 should fail (nothing could ever pass)")
	}
	if err := s.Add(ConfidencePolicy{Role: "manager", Purpose: "investment", Beta: -0.1}); err == nil {
		t.Error("negative beta should fail")
	}
	if got := len(s.Policies()); got != 2 {
		t.Errorf("policies = %d", got)
	}
	if str := (ConfidencePolicy{Role: "manager", Purpose: "investment", Beta: 0.06}).String(); !strings.Contains(str, "manager") {
		t.Errorf("String = %q", str)
	}
}

func TestBibaModel(t *testing.T) {
	b, err := NewBiba("low", "medium", "high")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetSubject("sue", "medium"); err != nil {
		t.Fatal(err)
	}
	if err := b.SetObject("report", "high"); err != nil {
		t.Fatal(err)
	}
	if err := b.SetObject("rumor", "low"); err != nil {
		t.Fatal(err)
	}
	if !b.CanRead("sue", "report") {
		t.Error("reading up should be allowed")
	}
	if b.CanRead("sue", "rumor") {
		t.Error("reading down must be denied")
	}
	if !b.CanWrite("sue", "rumor") {
		t.Error("writing down should be allowed")
	}
	if b.CanWrite("sue", "report") {
		t.Error("writing up must be denied")
	}
	if b.CanRead("ghost", "report") || b.CanRead("sue", "ghost") {
		t.Error("unknown principals are denied")
	}
}

func TestBibaValidation(t *testing.T) {
	if _, err := NewBiba(); err == nil {
		t.Error("no levels should fail")
	}
	if _, err := NewBiba("a", "a"); err == nil {
		t.Error("duplicate levels should fail")
	}
	b, _ := NewBiba("low", "high")
	if err := b.SetSubject("s", "nope"); err == nil {
		t.Error("unknown level should fail")
	}
	if err := b.SetObject("o", "nope"); err == nil {
		t.Error("unknown level should fail")
	}
	if len(b.Levels()) != 2 {
		t.Error("Levels")
	}
}

func TestBibaLevelForConfidence(t *testing.T) {
	b, _ := NewBiba("low", "medium", "high")
	cases := map[float64]string{
		0.0:  "low",
		0.2:  "low",
		0.34: "medium",
		0.65: "medium",
		0.67: "high",
		1.0:  "high",
		-1:   "low",
		2:    "high",
	}
	for p, want := range cases {
		if got := b.LevelForConfidence(p); got != want {
			t.Errorf("LevelForConfidence(%v) = %q, want %q", p, got, want)
		}
	}
}

func TestAccessors(t *testing.T) {
	s := newPaperStore(t)
	if s.RBAC() == nil || s.Purposes() == nil {
		t.Fatal("store accessors")
	}
	roles := s.RBAC().Roles()
	if len(roles) != 2 || roles[0] != "manager" {
		t.Fatalf("Roles = %v", roles)
	}
	if !s.RBAC().HasRole("MANAGER") {
		t.Fatal("role lookup is case-insensitive")
	}
	b, _ := NewBiba("low", "high")
	if err := b.SetSubject("x", "low"); err != nil {
		t.Fatal(err)
	}
	if subs := b.Subjects(); len(subs) != 1 || subs[0] != "x" {
		t.Fatalf("Subjects = %v", subs)
	}
	// Policies are returned sorted.
	ps := s.Policies()
	if ps[0].Role > ps[1].Role {
		t.Fatalf("Policies not sorted: %v", ps)
	}
}

func TestUserRolesOfUnknownUser(t *testing.T) {
	r := NewRBAC()
	if got := r.UserRoles("nobody"); len(got) != 0 {
		t.Fatalf("unknown user roles = %v", got)
	}
	if r.UserHasRole("nobody", "x") {
		t.Fatal("unknown user has no roles")
	}
}

func TestNewStoreFromSpecs(t *testing.T) {
	s, err := NewStoreFromSpecs(
		[]string{"manager:investment:0.06", "secretary:any:0.05"},
		[]string{"mark=manager", "sue=secretary"})
	if err != nil {
		t.Fatal(err)
	}
	if beta, ok := s.Threshold("mark", "investment"); !ok || beta != 0.06 {
		t.Errorf("mark/investment threshold = %v, %v; want 0.06", beta, ok)
	}
	if beta, ok := s.Threshold("sue", "investment"); !ok || beta != 0.05 {
		t.Errorf("sue/investment threshold = %v, %v; want the root-purpose policy's 0.05", beta, ok)
	}
	for _, bad := range [][2][]string{
		{{"manager:investment"}, nil},
		{{"manager:investment:high"}, nil},
		{{"manager:investment:1.5"}, nil},
		{nil, {"mark"}},
	} {
		if _, err := NewStoreFromSpecs(bad[0], bad[1]); err == nil {
			t.Errorf("specs %v / %v accepted, want an error", bad[0], bad[1])
		}
	}
}
