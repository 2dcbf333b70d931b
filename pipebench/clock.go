package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// stamp is one reading of the clocks an iteration is timed with.
type stamp struct {
	wall time.Time
	// cpu is the process's user plus system time.
	cpu time.Duration
	// steal is the machine-wide time the hypervisor ran something else
	// while one of this machine's CPUs had work to run.
	steal time.Duration
}

func readStamp() stamp {
	return stamp{
		wall:  time.Now(), //lint:allow determinism benchmark timing; the pipeline never reads this clock
		cpu:   processCPU(),
		steal: stolenTime(),
	}
}

// served returns the wall time from a to b with the stolen share taken
// out: wall × cpu / (cpu + steal). On a shared host the hypervisor can
// withhold a fifth of the CPU time for minutes at a time, which moves
// wall-clock medians by more than any bound could allow. Of the time
// this process wanted a CPU, it got the share cpu/(cpu+steal), so the
// same work on an unshared machine takes that share of the wall time.
// Without steal accounting it is the plain wall time.
func served(a, b stamp) time.Duration {
	wall := b.wall.Sub(a.wall)
	cpu, steal := b.cpu-a.cpu, b.steal-a.steal
	if steal <= 0 || cpu <= 0 {
		return wall
	}
	return time.Duration(float64(wall) * float64(cpu) / float64(cpu+steal))
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// userHZ is the unit of /proc/stat's CPU times (USER_HZ, 100 on Linux).
const userHZ = 100

// stolenTime reads the steal column of /proc/stat's aggregate CPU line;
// 0 where the kernel does not report it.
func stolenTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHZ
}
