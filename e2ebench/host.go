package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host is the fingerprint every run record carries, so two records can
// be compared — or an outlier run traced to its host.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	// SnapshotFS is the filesystem type of the directory holding the
	// served fleet's snapshot root.
	SnapshotFS string `json:"snapshot_fs"`
	// ProbeMS times probeWork before and after the measured passes.
	ProbeMS [2]float64 `json:"cpu_probe_ms"`
	// StealFrac is the share of the host's CPU time stolen by the
	// hypervisor while the run measured.
	StealFrac float64 `json:"cpu_steal_frac"`
}

func fingerprint(workdir string) host {
	return host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Kernel:     kernel(),
		SnapshotFS: fsType(workdir),
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// fsMagic names the statfs magic numbers of common filesystems.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

var probeSink float64

// probeWork times a fixed single-threaded 256×256 matrix product, a
// cache- and memory-bound kernel like the surrogate fit (about 25 ms on
// the reference host). A run whose probes read far from the host's usual
// value ran on a slowed or contended machine.
func probeWork() float64 {
	const n = 256
	a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%17) / 17
		b[i] = float64(i%13) / 13
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			for j := 0; j < n; j++ {
				c[i*n+j] += aik * b[k*n+j]
			}
		}
	}
	ms := float64(time.Since(start)) / 1e6
	probeSink = c[n*n-1]
	return ms
}

// cpuTimes reads the host's aggregate CPU time counters (jiffies) from
// /proc/stat: steal — time the hypervisor gave this VM's CPUs to others —
// and the total.
func cpuTimes() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	for i := 1; i < len(fields); i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// FNV-1a over 64-bit words, for bit-identity digests.
const (
	fnvOffset = uint64(14695981039346656037)
	fnvPrime  = uint64(1099511628211)
)

func fnvMix(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= fnvPrime
		w >>= 8
	}
	return h
}
