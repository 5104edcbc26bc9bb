package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// target is one booted system under test.
type target struct {
	URL string
	// PID is the process whose resident memory is reported.
	PID int
	// Stop shuts the target down and waits until it has ended.
	Stop func() error
}

// bootFunc starts a target over a generated dataset, using dir for its
// scratch files. The benchmark boots a real pcqed process; the
// self-test substitutes an in-process httptest server.
type bootFunc func(d *dataset, dir string) (*target, error)

// buildDir holds the pcqed binary built from this checkout.
const buildDir = ".bench_build"

// buildPcqed compiles cmd/pcqed from the checkout in the working
// directory. It always invokes the go tool, which is a no-op when the
// binary is current.
func buildPcqed() (string, error) {
	for _, need := range []string{"go.mod", filepath.Join("cmd", "pcqed")} {
		if _, err := os.Stat(need); err != nil {
			return "", fmt.Errorf("benchmark: run from the root of a pcqe checkout: %w", err)
		}
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "pcqed"))
	if err != nil {
		return "", fmt.Errorf("benchmark: %w", err)
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pcqed")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("benchmark: building pcqed: %w\n%s", err, stderr.String())
	}
	return bin, nil
}

// bootPcqed returns the bootFunc that starts the built daemon and waits
// for it to publish its address (which it does after loading the tables
// and building the indexes).
func bootPcqed(bin string) bootFunc {
	return func(d *dataset, dir string) (*target, error) {
		addrFile := filepath.Join(dir, "addr")
		if err := os.Remove(addrFile); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("benchmark: %w", err)
		}
		logFile, err := os.Create(filepath.Join(dir, "pcqed.log"))
		if err != nil {
			return nil, fmt.Errorf("benchmark: %w", err)
		}
		cmd := exec.Command(bin, d.pcqedArgs(addrFile)...)
		cmd.Stdout, cmd.Stderr = logFile, logFile
		if err := cmd.Start(); err != nil {
			logFile.Close()
			return nil, fmt.Errorf("benchmark: starting pcqed: %w", err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()
		stop := func() error {
			defer logFile.Close()
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				return fmt.Errorf("benchmark: stopping pcqed: %w", err)
			}
			select {
			case err := <-exited:
				if err != nil {
					return fmt.Errorf("benchmark: pcqed did not drain cleanly: %w", err)
				}
				return nil
			case <-time.After(20 * time.Second):
				cmd.Process.Kill()
				<-exited
				return fmt.Errorf("benchmark: pcqed ignored SIGTERM for 20s and was killed")
			}
		}
		deadline := time.Now().Add(60 * time.Second)
		for {
			if addr, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(addr, []byte("\n")) {
				return &target{URL: "http://" + strings.TrimSpace(string(addr)), PID: cmd.Process.Pid, Stop: stop}, nil
			}
			select {
			case err := <-exited:
				logFile.Close()
				log, _ := os.ReadFile(logFile.Name()) // best-effort context for the error
				if err == nil {
					err = errors.New("exit status 0")
				}
				return nil, fmt.Errorf("benchmark: pcqed exited before listening: %w\n%s", err, log)
			case <-time.After(2 * time.Millisecond):
			}
			if time.Now().After(deadline) {
				stop()
				return nil, fmt.Errorf("benchmark: pcqed did not listen within 60s")
			}
		}
	}
}

// procMB reads one kB-valued field (VmRSS, VmHWM) of a process's
// /proc status, in MB.
func procMB(pid int, field string) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, fmt.Errorf("benchmark: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("benchmark: parsing %s of pid %d: %w", field, pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("benchmark: no %s in /proc/%d/status", field, pid)
}
