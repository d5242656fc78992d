package core

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	osexec "os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"pdcquery/internal/cluster"
	"pdcquery/internal/telemetry"
)

// ProcessDeployment is the multi-process cluster: one pdc-server
// -catalog child plus N pdc-server -join children, each a real OS
// process over real TCP. The in-proc Deployment stays the deterministic
// fast path; this harness exists to prove the same catalog, placement,
// replication, and failover machinery holds when members are separate
// processes that can be SIGKILLed. The chaos harness drives it
// (fault.RunClusterChaos runs the pinned membership plans on it as on
// cluster.Local), and so does the wall-clock benchmark.
type ProcessDeployment struct {
	opts ProcessOptions

	catalog     *child
	catalogAddr string

	mu      sync.Mutex
	members []*child // live members, spawn order
}

// ProcessOptions configures a process cluster.
type ProcessOptions struct {
	// BinPath is the pdc-server binary to spawn. Required.
	BinPath string
	// Members is the initial member count (default 3).
	Members int
	// R is the replication factor (default 2).
	R int
	// Seed parameterizes placement.
	Seed uint64
	// Metrics starts each child's HTTP metrics listener on a free port
	// (read the address back with MetricsAddr).
	Metrics bool
	// Stderr receives the children's stderr (nil = discard).
	Stderr io.Writer
}

// Process-cluster timing. Members beat every processHeartbeat; the
// catalog declares silence longer than processHeartbeatTimeout a death.
// processStartTimeout bounds each child's listen handshake (a child that
// neither prints PDC_LISTENING nor exits is killed) and the wait for the
// committed view to include the initial members.
const (
	processHeartbeat        = 100 * time.Millisecond
	processHeartbeatTimeout = time.Second
	processStartTimeout     = 30 * time.Second
)

// child is one spawned pdc-server process.
type child struct {
	cmd         *osexec.Cmd
	id          cluster.MemberID // catalog-assigned (members only)
	addr        string           // serving address from the PDC_LISTENING handshake
	metricsAddr string           // from PDC_METRICS (empty unless Metrics)
	waitErr     chan error
}

// StartProcessDeployment spawns the catalog, then joins the initial
// members one by one.
func StartProcessDeployment(opts ProcessOptions) (*ProcessDeployment, error) {
	if opts.BinPath == "" {
		return nil, fmt.Errorf("core: ProcessOptions.BinPath is required")
	}
	if opts.Members <= 0 {
		opts.Members = 3
	}
	if opts.R <= 0 {
		opts.R = 2
	}
	p := &ProcessDeployment{opts: opts}
	cat, err := p.spawn(
		"-catalog", "-addr", "127.0.0.1:0",
		"-seed", fmt.Sprint(opts.Seed),
		"-cluster-r", fmt.Sprint(opts.R),
		"-heartbeat-timeout", processHeartbeatTimeout.String(),
	)
	if err != nil {
		return nil, fmt.Errorf("core: start catalog: %w", err)
	}
	p.catalog = cat
	p.catalogAddr = cat.addr
	for i := 0; i < opts.Members; i++ {
		if _, err := p.Join(); err != nil {
			p.Close()
			return nil, err
		}
	}
	return p, nil
}

// spawn starts one child and completes the PDC_LISTENING handshake: the
// one reader of the line in the module.
func (p *ProcessDeployment) spawn(args ...string) (*child, error) {
	if p.opts.Metrics {
		args = append(args, "-metrics-addr", "127.0.0.1:0")
	}
	cmd := osexec.Command(p.opts.BinPath, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if p.opts.Stderr != nil {
		cmd.Stderr = p.opts.Stderr
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, waitErr: make(chan error, 1)}
	// One goroutine owns Wait (reaps the child); the handshake below
	// reads stdout until the listen line or EOF. A watchdog kills a
	// child that hangs before printing, which EOFs the scanner.
	go func() { c.waitErr <- cmd.Wait() }()
	handshake := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "PDC_LISTENING "); ok {
				c.addr = strings.TrimSpace(rest)
				if !p.opts.Metrics {
					break
				}
				continue
			}
			if rest, ok := strings.CutPrefix(line, "PDC_METRICS "); ok {
				c.metricsAddr = strings.TrimSpace(rest)
				break
			}
		}
		if c.addr == "" {
			handshake <- fmt.Errorf("core: child exited before PDC_LISTENING handshake")
			return
		}
		handshake <- nil
		// Keep draining so a chatty child can never block on stdout.
		for sc.Scan() {
		}
	}()
	watchdogDone := make(chan struct{})
	defer close(watchdogDone)
	go func() {
		for waited := time.Duration(0); waited < processStartTimeout; waited += 50 * time.Millisecond {
			select {
			case <-watchdogDone:
				return
			default:
			}
			telemetry.WallSleep.Sleep(50 * time.Millisecond)
		}
		_ = cmd.Process.Kill()
	}()
	if err := <-handshake; err != nil {
		_ = cmd.Process.Kill()
		<-c.waitErr
		return nil, err
	}
	return c, nil
}

// Join adds one member process (a join: the catalog rebalances and the
// joiner pulls its regions) and returns its catalog-assigned ID once
// the committed view includes it.
func (p *ProcessDeployment) Join() (cluster.MemberID, error) {
	c, err := p.spawn(
		"-join", p.catalogAddr, "-addr", "127.0.0.1:0",
		"-heartbeat", processHeartbeat.String(),
	)
	if err != nil {
		return -1, fmt.Errorf("core: spawn member: %w", err)
	}
	c.id = -1
	p.mu.Lock()
	p.members = append(p.members, c)
	p.mu.Unlock()
	_, err = p.awaitView(processStartTimeout, func(v cluster.View) bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		for _, mi := range v.Members {
			if mi.Addr == c.addr {
				c.id = mi.ID
			}
		}
		return c.id >= 0
	})
	return c.id, err
}

// MemberIDs lists the live members in ID order.
func (p *ProcessDeployment) MemberIDs() []cluster.MemberID {
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := make([]cluster.MemberID, len(p.members))
	for i, c := range p.members {
		ids[i] = c.id
	}
	slices.Sort(ids)
	return ids
}

// MemberAddrs lists the live members' serving addresses in spawn order.
func (p *ProcessDeployment) MemberAddrs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	addrs := make([]string, len(p.members))
	for i, c := range p.members {
		addrs[i] = c.addr
	}
	return addrs
}

// MetricsAddr returns the metrics address of the member serving addr
// ("" when metrics are off); "catalog" names the catalog process.
func (p *ProcessDeployment) MetricsAddr(addr string) string {
	if addr == "catalog" {
		return p.catalog.metricsAddr
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.members {
		if c.addr == addr {
			return c.metricsAddr
		}
	}
	return ""
}

// remove takes member id out of the live set and returns its process
// (nil when no live member has that ID).
func (p *ProcessDeployment) remove(id cluster.MemberID) *child {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, c := range p.members {
		if c.id == id {
			p.members = slices.Delete(p.members, i, i+1)
			return c
		}
	}
	return nil
}

// Crash SIGKILLs member id — no goodbye, no flush; the catalog finds out
// through the broken control connection or the heartbeat timeout, and
// failover must keep answers exact.
func (p *ProcessDeployment) Crash(id cluster.MemberID) error {
	victim := p.remove(id)
	if victim == nil {
		return fmt.Errorf("core: no member %d", id)
	}
	_ = victim.cmd.Process.Kill()
	<-victim.waitErr
	return nil
}

// Session opens a catalog-aware client session over TCP, configured
// for a live cluster: wall-clock call timeouts and paced retries.
func (p *ProcessDeployment) Session() (*cluster.Session, error) {
	return cluster.DialSession(cluster.SessionOptions{
		Net:         cluster.TCPNetwork{},
		CatalogAddr: p.catalogAddr,
		CallTimeout: 10 * time.Second,
		MaxAttempts: 60,
		RetryWait:   50 * time.Millisecond,
		Sleeper:     telemetry.WallSleep,
		Clock:       telemetry.Wall,
	})
}

// Drain retires member id through the catalog and waits for its
// process to exit.
func (p *ProcessDeployment) Drain(id cluster.MemberID, timeout time.Duration) error {
	s, err := p.Session()
	if err != nil {
		return err
	}
	defer s.Close()
	if err := s.Drain(id); err != nil {
		return err
	}
	victim := p.remove(id)
	if victim == nil {
		return fmt.Errorf("core: no member process %d", id)
	}
	select {
	case <-victim.waitErr:
		return nil
	case <-wallAfter(timeout):
		_ = victim.cmd.Process.Kill()
		<-victim.waitErr
		return fmt.Errorf("core: member %d did not exit %v after drain", id, timeout)
	}
}

// wallAfter is a telemetry-seam replacement for time.After (the
// nondeterminism contract keeps raw timers out of production packages).
func wallAfter(d time.Duration) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		telemetry.WallSleep.Sleep(d)
		close(ch)
	}()
	return ch
}

// WaitMembers polls the committed view until it holds n members.
func (p *ProcessDeployment) WaitMembers(n int, timeout time.Duration) error {
	if _, err := p.awaitView(timeout, func(v cluster.View) bool { return len(v.Members) == n }); err != nil {
		return fmt.Errorf("%w, want %d", err, n)
	}
	return nil
}

// awaitView polls the committed view until ok accepts it.
func (p *ProcessDeployment) awaitView(timeout time.Duration, ok func(cluster.View) bool) (cluster.View, error) {
	s, err := p.Session()
	if err != nil {
		return cluster.View{}, err
	}
	defer s.Close()
	const poll = 20 * time.Millisecond
	for waited := time.Duration(0); ; waited += poll {
		v, err := s.FetchView()
		if err == nil && ok(v) {
			return v, nil
		}
		if waited >= timeout {
			if err != nil {
				return v, fmt.Errorf("core: cluster view unavailable after %v: %w", timeout, err)
			}
			return v, fmt.Errorf("core: %d members in view after %v", len(v.Members), timeout)
		}
		telemetry.WallSleep.Sleep(poll)
	}
}

// Close SIGKILLs every child and reaps them.
func (p *ProcessDeployment) Close() {
	p.mu.Lock()
	members := p.members
	p.members = nil
	p.mu.Unlock()
	for _, c := range members {
		_ = c.cmd.Process.Kill()
	}
	for _, c := range members {
		<-c.waitErr
	}
	if p.catalog != nil {
		_ = p.catalog.cmd.Process.Kill()
		<-p.catalog.waitErr
	}
}

// ServerBuild compiles cmd/pdc-server — the binary ProcessOptions.BinPath
// names — at most once, into a temporary directory. A test binary that
// spawns processes holds one, asks each test for Path and calls Remove
// from TestMain.
type ServerBuild struct {
	once sync.Once
	dir  string
	err  error
}

// Path builds the binary on first use and returns its path.
func (b *ServerBuild) Path() (string, error) {
	b.once.Do(func() {
		if b.dir, b.err = os.MkdirTemp("", "pdc-bin-"); b.err != nil {
			return
		}
		out, err := osexec.Command("go", "build", "-o", b.dir, "pdcquery/cmd/pdc-server").CombinedOutput()
		if err != nil {
			b.err = fmt.Errorf("go build pdc-server: %v\n%s", err, out)
		}
	})
	return filepath.Join(b.dir, "pdc-server"), b.err
}

// Remove deletes the build directory (nothing before the first Path).
func (b *ServerBuild) Remove() { _ = os.RemoveAll(b.dir) }

// Scrape GETs path (say "/metrics") from a process's HTTP listener at
// addr, a MetricsAddr, and returns the body of its 200 reply. A refused
// connection is retried for up to processStartTimeout.
func Scrape(addr, path string) (string, error) {
	const poll = 50 * time.Millisecond
	for waited := time.Duration(0); ; waited += poll {
		resp, err := http.Get("http://" + addr + path)
		if err == nil {
			body, err := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
			if err != nil {
				return "", fmt.Errorf("core: GET %s%s: %w", addr, path, err)
			}
			return string(body), nil
		}
		if waited >= processStartTimeout {
			return "", fmt.Errorf("core: GET %s%s: %w", addr, path, err)
		}
		telemetry.WallSleep.Sleep(poll)
	}
}
