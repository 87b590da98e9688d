package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envRecord is carried by every output record so that a noisy or foreign
// run can be recognised after the fact.
type envRecord struct {
	GitRev     string  `json:"git_rev"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	DataFS     string  `json:"data_fs"`   // filesystem under the output directory
	Fsync      string  `json:"fsync"`     // always "counted, not issued"
	StealPct   float64 `json:"steal_pct"` // host steal time over the run, % of all CPU time
	StealTicks int64   `json:"steal_ticks"`
}

func readEnv(outDir string) envRecord {
	e := envRecord{
		GitRev:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		DataFS:     fsType(outDir),
		Fsync:      "counted, not issued",
	}
	// A checkout the driver makes is not a git repository; the rev is then
	// "unknown", which is itself worth recording.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.GitRev = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	default:
		return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
	}
}

// userHZ is the unit of /proc/stat: ticks per second, 100 on every Linux
// port Go runs on.
const userHZ = 100

// procStat reads /proc/stat; a test replaces it to take the host out.
var procStat = func() ([]byte, error) { return os.ReadFile("/proc/stat") }

// cpuTicks reads the aggregate cpu line of /proc/stat, in clock ticks:
// steal; runnable, the time the CPUs had something to run (everything but
// idle and iowait, steal included); and the total.
func cpuTicks() (steal, runnable, total int64) {
	raw, err := procStat()
	if err != nil {
		return 0, 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, 0
	}
	for i, s := range f[1:9] { // user nice system idle iowait irq softirq steal; guest time is inside user
		v, _ := strconv.ParseInt(s, 10, 64)
		total += v
		if i != 3 && i != 4 {
			runnable += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, runnable, total
}

// lap is one timed interval: what the clock read over it, and what the host
// took from this machine over it (steal, from /proc/stat) — in seconds
// summed over the CPUs, and as a share of the time the CPUs had work to do.
type lap struct {
	wall   time.Duration
	stealS float64
	stolen float64
}

type lapStart struct {
	t               time.Time
	steal, runnable int64
}

func startLap() lapStart {
	steal, runnable, _ := cpuTicks()
	return lapStart{time.Now(), steal, runnable}
}

func (s lapStart) stop() lap {
	l := lap{wall: time.Since(s.t)}
	if steal, runnable, _ := cpuTicks(); runnable > s.runnable {
		l.stealS = float64(steal-s.steal) / userHZ
		l.stolen = float64(steal-s.steal) / float64(runnable-s.runnable)
	}
	return l
}

// seconds is the time the machine was running during the lap: the clock's
// reading less what the host took from the thread being timed. The load is
// one closed-loop client, so one thread at a time is on the path being
// timed. A CPU with nothing to run accrues no steal, so when that thread is
// the only one runnable the steal seconds are exactly the time it was held.
// When a second thread is runnable beside it (a collector worker) and both
// are held at once, the seconds count that moment twice — ten runs of
// exoram-dynamic at 5-23 % steal read 4.0 s at the low end and 3.0 s at the
// high end with the seconds taken off — but the stolen share of the runnable
// time is still what was taken from each. So the lesser of the two comes
// off: never more than the steal there was, never more than the thread's
// share of it.
func (l lap) seconds() float64 {
	return l.wall.Seconds() - min(l.stealS, l.stolen*l.wall.Seconds())
}

// ran is the share of the lap's clock time the machine was running.
func (l lap) ran() float64 {
	if l.wall <= 0 {
		return 1
	}
	return l.seconds() / l.wall.Seconds()
}

// plus is the two laps end to end.
func (l lap) plus(o lap) lap {
	sum := lap{wall: l.wall + o.wall, stealS: l.stealS + o.stealS}
	if sum.wall > 0 {
		sum.stolen = (l.wall.Seconds()*l.stolen + o.wall.Seconds()*o.stolen) / sum.wall.Seconds()
	}
	return sum
}

// resetPeakRSS hands the heap's free pages back to the kernel and restarts
// the resident-set high-water mark from what is left, so that the next
// peakRSSBytes is the peak of what runs in between and not of the whole
// process so far. Where the kernel refuses the reset the mark simply keeps
// rising, and the first reading is the lowest.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSBytes is VmHWM, the process's resident-set high-water mark.
func peakRSSBytes() int64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseInt(f[0], 10, 64)
				return kb * 1024
			}
		}
	}
	return 0
}

// cpuSeconds is the process's user + system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
