package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a sched_{get,set}affinity mask with room for 1024 CPUs.
type cpuSet [16]uint64

// keepAwake starts one child process per CPU this process may use, each
// a busy loop of the lowest scheduling class (SCHED_IDLE) pinned to its
// CPU, and returns the function that kills them and waits for them.
//
// On a virtualised host an idle vCPU halts, and waking it costs 10 to 40
// µs depending on what the host is doing that minute. A point lookup's
// round trip crosses CPUs four times, so on the sandbox this was built
// on, identical point_hot runs ranged from 5.1 K to 8.5 K req/s; with the
// loops — the effect of booting with idle=poll — the same runs ranged
// from 8.1 K to 9.1 K. The loops yield to any real work at once. They
// are processes, not threads of the client: a Go runtime cannot stop the
// world while one of its own threads waits at idle priority for a CPU
// that pcqed keeps busy.
//
// Best effort: where the mask cannot be read or a child cannot start,
// the benchmark runs without, only noisier.
func keepAwake() (stop func()) {
	var mask cpuSet
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	exe, err := os.Executable()
	if errno != 0 || err != nil {
		return func() {}
	}
	var children []*exec.Cmd
	for cpu := 0; cpu < 64*len(mask); cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) == 0 {
			continue
		}
		cmd := exec.Command(exe, "-spin", strconv.Itoa(cpu))
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if cmd.Start() == nil {
			children = append(children, cmd)
		}
	}
	return func() {
		for _, cmd := range children {
			cmd.Process.Kill()
			cmd.Wait() // reports the kill; nothing to learn from it
		}
		children = nil
	}
}

// spin is the child: it pins itself, drops to SCHED_IDLE and loops until
// killed. It returns only if either step is refused — a loop at normal
// priority would take the CPU it is meant to keep warm.
func spin(cpu int) {
	runtime.LockOSThread()
	var one cpuSet
	one[cpu/64] = 1 << (cpu % 64)
	const schedIdle = 5
	var priority int32
	_, _, e1 := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one)))
	_, _, e2 := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&priority)))
	if e1 != 0 || e2 != 0 {
		return
	}
	for {
	}
}
