//go:build !linux

package main

// keepAwake and spin are no-ops where SCHED_IDLE does not exist.
func keepAwake() (stop func()) { return func() {} }

func spin(int) {}
