package main

import (
	"fmt"
	"os"
	"time"

	"pcqe/internal/core"
	"pcqe/internal/obs"
	"pcqe/internal/policy"
	"pcqe/internal/relation"
	"pcqe/internal/server"
	"pcqe/internal/sql"
)

// local is an in-process copy of what pcqed builds from the same
// inputs: the reference the timed run's answers are checked against,
// the engine the traced pass replays into, and the self-test's server.
// Tables are created, loaded and indexed in pcqed's order, so committed
// versions and lineage variables agree with the daemon's.
type local struct {
	cat    *relation.Catalog
	store  *policy.Store
	engine *core.Engine
	srv    *server.Server
	// loadSeconds and loadRows cover the LoadCSV calls alone.
	loadSeconds float64
	loadRows    int
}

func newLocal(d *dataset, tracer obs.Tracer) (*local, error) {
	l := &local{cat: relation.NewCatalog()}
	tables := []struct {
		name, file string
		schema     *relation.Schema
	}{
		{"Suppliers", d.SuppliersCSV, relation.NewSchema(
			relation.Column{Name: "Name", Type: relation.TypeString},
			relation.Column{Name: "Region", Type: relation.TypeString},
			relation.Column{Name: "Rating", Type: relation.TypeFloat})},
		{"Orders", d.OrdersCSV, relation.NewSchema(
			relation.Column{Name: "Supplier", Type: relation.TypeString},
			relation.Column{Name: "Item", Type: relation.TypeInt},
			relation.Column{Name: "Amount", Type: relation.TypeFloat})},
	}
	for _, t := range tables {
		tab, err := l.cat.CreateTable(t.name, t.schema)
		if err != nil {
			return nil, fmt.Errorf("benchmark: %w", err)
		}
		if err := l.load(tab, t.file); err != nil {
			return nil, err
		}
	}
	if _, err := sql.ExecScript(l.cat, indexScript); err != nil {
		return nil, fmt.Errorf("benchmark: %w", err)
	}

	rbac := policy.NewRBAC()
	purposes := policy.NewPurposeTree()
	l.store = policy.NewStore(rbac, purposes)
	if err := purposes.Add(purpose, ""); err != nil {
		return nil, fmt.Errorf("benchmark: %w", err)
	}
	for _, ro := range roles {
		rbac.AddRole(ro.Name)
		if err := l.store.Add(policy.ConfidencePolicy{Role: ro.Name, Purpose: purpose, Beta: ro.Beta}); err != nil {
			return nil, fmt.Errorf("benchmark: %w", err)
		}
	}
	for _, u := range sessionUsers {
		if err := rbac.AssignUser(u.User, u.Role); err != nil {
			return nil, fmt.Errorf("benchmark: %w", err)
		}
	}

	l.engine = core.NewEngine(l.cat, l.store, nil)
	l.engine.SetAudit(&core.AuditLog{})
	l.engine.SetMetrics(obs.New())
	if tracer != nil {
		l.engine.SetTracer(tracer)
	}
	l.srv = server.New(l.engine, server.Config{})
	return l, nil
}

func (l *local) load(tab *relation.Table, file string) error {
	f, err := os.Open(file)
	if err != nil {
		return fmt.Errorf("benchmark: %w", err)
	}
	defer f.Close()
	start := time.Now()
	n, err := relation.LoadCSV(tab, f)
	if err != nil {
		return fmt.Errorf("benchmark: loading %s: %w", file, err)
	}
	l.loadSeconds += time.Since(start).Seconds()
	l.loadRows += n
	return nil
}

// betaOf is the threshold the policy table pins on a session.
func betaOf(sess int) float64 {
	for _, ro := range roles {
		if ro.Name == sessionUsers[sess].Role {
			return ro.Beta
		}
	}
	return 0
}
