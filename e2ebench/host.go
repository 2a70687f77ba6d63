package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"blockdag/internal/crypto"
	"blockdag/internal/mempool"
	dagmetrics "blockdag/internal/metrics"
)

// counters is one replica incarnation's exported counters at an instant.
type counters struct {
	m            dagmetrics.Snapshot
	signed       int64
	verified     int64
	mp           mempool.Stats
	rejections   int64
	authFailures int64
	disk         int64
}

// snap reads r's counters; every source is safe for concurrent use.
func (r *replica) snap() counters {
	c := counters{
		m:            r.mets.Snapshot(),
		signed:       r.sigs.Signed(),
		verified:     r.sigs.Verified(),
		rejections:   r.tr.Rejections(),
		authFailures: r.tr.AuthFailures(),
	}
	if pool := r.nd.Server().Mempool(); pool != nil {
		c.mp = pool.Stats()
	}
	if size, ok := r.nd.StoreDiskSize(); ok {
		c.disk = size
	} else {
		c.disk = r.diskAtStart
	}
	return c
}

// sub returns the activity between two snapshots of one incarnation.
func (c counters) sub(o counters) counters {
	return counters{
		m:        c.m.Delta(o.m),
		signed:   c.signed - o.signed,
		verified: c.verified - o.verified,
		mp: mempool.Stats{
			Submitted: c.mp.Submitted - o.mp.Submitted,
			Accepted:  c.mp.Accepted - o.mp.Accepted,
			Overflow:  c.mp.Overflow - o.mp.Overflow,
			Drained:   c.mp.Drained - o.mp.Drained,
			PeakDepth: c.mp.PeakDepth,
		},
		rejections:   c.rejections - o.rejections,
		authFailures: c.authFailures - o.authFailures,
		disk:         c.disk - o.disk,
	}
}

// add sums two incarnations' activity.
func (c counters) add(o counters) counters {
	m := c.m
	d := o.m
	m.BlocksBuilt += d.BlocksBuilt
	m.BlocksReceived += d.BlocksReceived
	m.BlocksInserted += d.BlocksInserted
	m.BlocksDuplicate += d.BlocksDuplicate
	m.BlocksRejected += d.BlocksRejected
	m.FwdRequestsSent += d.FwdRequestsSent
	m.FwdRequestsServed += d.FwdRequestsServed
	m.WireMessages += d.WireMessages
	m.WireBytes += d.WireBytes
	m.RequestsEmbedded += d.RequestsEmbedded
	m.MsgsMaterialized += d.MsgsMaterialized
	m.BlocksInterpreted += d.BlocksInterpreted
	m.Indications += d.Indications
	m.EquivocationsSeen += d.EquivocationsSeen
	return counters{
		m:        m,
		signed:   c.signed + o.signed,
		verified: c.verified + o.verified,
		mp: mempool.Stats{
			Submitted: c.mp.Submitted + o.mp.Submitted,
			Accepted:  c.mp.Accepted + o.mp.Accepted,
			Overflow:  c.mp.Overflow + o.mp.Overflow,
			Drained:   c.mp.Drained + o.mp.Drained,
			PeakDepth: max(c.mp.PeakDepth, o.mp.PeakDepth),
		},
		rejections:   c.rejections + o.rejections,
		authFailures: c.authFailures + o.authFailures,
		disk:         c.disk + o.disk,
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal returns the machine's cumulative CPU jiffies: all of them,
// and those stolen by the hypervisor for other guests.
func hostSteal() (total, steal int64) {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// gcCPU returns the Go runtime's cumulative GC CPU and total CPU seconds.
func gcCPU() (gc, total float64) {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() != metrics.KindFloat64 || samples[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return samples[0].Value.Float64(), samples[1].Value.Float64()
}

// heapBytes is the live heap object bytes right now.
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// hostInfo fingerprints the machine a result was taken on, so a host
// change shows as one.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	StoreFS    string `json:"store_fs"`
}

func fingerprint(storeDir string) hostInfo {
	return hostInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		StoreFS:    fsType(storeDir),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x65735546: "fuse",
		0x6969:     "nfs",
		0x2FC12FC1: "zfs",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// calibrate takes the two host readings every result carries, outside
// the measured window: one Ed25519 verification through the roster the
// replicas use, and one 4 KiB write+fsync in the store directory.
func calibrate(dir string) (verifyUs, fsyncMs float64, err error) {
	roster, signers, err := crypto.LocalRoster(nReplicas)
	if err != nil {
		return 0, 0, err
	}
	msg := []byte("e2ebench calibration message")
	sig := signers[1].Sign(msg)
	const batch, reps = 64, 9
	per := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := 0; i < batch; i++ {
			if !roster.Verify(1, msg, sig) {
				return 0, 0, fmt.Errorf("calibration: signature did not verify")
			}
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/batch/1e3)
	}
	verifyUs = median(per)

	path := filepath.Join(dir, "fsync-calibration")
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, fmt.Errorf("calibration: %w", err)
	}
	defer os.Remove(path)
	buf := make([]byte, 4096)
	syncs := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		if _, err := f.Write(buf); err != nil {
			_ = f.Close()
			return 0, 0, fmt.Errorf("calibration: %w", err)
		}
		start := time.Now()
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return 0, 0, fmt.Errorf("calibration: %w", err)
		}
		syncs = append(syncs, float64(time.Since(start).Nanoseconds())/1e6)
	}
	if err := f.Close(); err != nil {
		return 0, 0, fmt.Errorf("calibration: %w", err)
	}
	return verifyUs, median(syncs), nil
}

// quantile returns the q-quantile of xs by linear interpolation (0 for
// an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
