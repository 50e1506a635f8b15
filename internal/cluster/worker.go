package cluster

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"havoqgt/internal/core"
	"havoqgt/internal/engine"
	"havoqgt/internal/generators"
	hnet "havoqgt/internal/net"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
)

// WorkerOptions configure one worker process.
type WorkerOptions struct {
	Coordinator string        // coordinator control address
	Config      ClusterConfig // must checksum-match the coordinator's
	Slot        int           // explicit worker slot, or -1 for coordinator-assigned
	MeshAddr    string        // data-plane listen address (default "127.0.0.1:0")
	JoinTimeout time.Duration // dial + handshake bound (default 30s)
	// JoinRetry keeps retrying a refused or failed join for this long before
	// giving up (0 = fail immediately). A restarted worker racing the failure
	// detector needs this: its old slot stays occupied until the detector
	// evicts the corpse, so the first joins bounce with ErrDuplicateSlot.
	JoinRetry time.Duration
	Logf      func(format string, args ...any)
}

// joinVersion is what this worker claims to speak; a var so the handshake
// rejection path is testable without forking a differently built binary.
var joinVersion = Version

func (o WorkerOptions) normalized() WorkerOptions {
	if o.MeshAddr == "" {
		o.MeshAddr = "127.0.0.1:0"
	}
	if o.JoinTimeout <= 0 {
		o.JoinTimeout = 30 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	o.Config = o.Config.normalized()
	return o
}

// RunWorker joins the coordinator, hosts this process's rank window until
// the coordinator orders shutdown, then tears everything down. It returns
// nil after a clean shutdown, a typed handshake error (ErrVersionMismatch,
// ErrConfigMismatch, ErrDuplicateSlot, ErrSealed) when the coordinator
// refuses the join, ErrEvicted when the coordinator's failure detector
// declared this worker dead, and ErrCoordinatorDown when the control
// connection dies without a verdict or before shutdown.
//
// With JoinRetry > 0, joins refused with ErrDuplicateSlot or ErrSealed and
// handshake-phase connection failures are retried until the window closes —
// the slot of a killed predecessor reopens only once the failure detector
// fires, so a fresh replacement must out-wait it.
func RunWorker(opts WorkerOptions) error {
	opts = opts.normalized()
	if err := opts.Config.validate(); err != nil {
		return err
	}
	deadline := time.Now().Add(opts.JoinRetry)
	for {
		joined, err := runWorkerSession(opts)
		if err == nil || joined || opts.JoinRetry <= 0 {
			return err
		}
		retryable := errors.Is(err, ErrDuplicateSlot) || errors.Is(err, ErrSealed) ||
			errors.Is(err, ErrCoordinatorDown)
		if !retryable || time.Now().After(deadline) {
			return err
		}
		opts.Logf("cluster: join refused (%v); retrying", err)
		time.Sleep(250 * time.Millisecond)
	}
}

// runWorkerSession is one join-to-teardown lifetime. joined reports whether
// the handshake got past the coordinator's verdict — errors after that point
// are session failures, not join refusals, and are never auto-retried.
func runWorkerSession(opts WorkerOptions) (joined bool, err error) {
	// Bind the data plane first: the join request must carry a dialable mesh
	// address, and binding ":0" resolves the port.
	mesh, err := hnet.NewMesh(opts.MeshAddr)
	if err != nil {
		return false, fmt.Errorf("cluster: bind mesh: %w", err)
	}
	meshStarted := false
	defer func() {
		if !meshStarted {
			mesh.Close()
		}
	}()

	conn, err := net.DialTimeout("tcp", opts.Coordinator, opts.JoinTimeout)
	if err != nil {
		return false, fmt.Errorf("%w: dial %s: %v", ErrCoordinatorDown, opts.Coordinator, err)
	}
	defer conn.Close()
	enc := json.NewEncoder(conn)
	dec := json.NewDecoder(conn)

	// Handshake: join -> joined | error.
	conn.SetDeadline(time.Now().Add(opts.JoinTimeout))
	err = enc.Encode(&msg{
		Type: "join", Version: joinVersion, ConfigSum: opts.Config.Checksum(),
		Slot: opts.Slot, MeshAddr: mesh.Addr(),
	})
	if err != nil {
		return false, fmt.Errorf("%w: send join: %v", ErrCoordinatorDown, err)
	}
	var reply msg
	if err := dec.Decode(&reply); err != nil {
		return false, fmt.Errorf("%w: awaiting join verdict: %v", ErrCoordinatorDown, err)
	}
	switch reply.Type {
	case "joined":
	case "error":
		return false, codeToErr(reply.Code, reply.Detail)
	default:
		return false, fmt.Errorf("%w: unexpected %q during handshake", ErrCoordinatorDown, reply.Type)
	}
	slot := reply.Slot
	rejoin := reply.Rejoin
	opts.Logf("cluster: joined as worker %d (mesh %s, rejoin %t)", slot, mesh.Addr(), rejoin)

	// Layout: arrives once the last worker joins (or immediately on a
	// re-join), so no deadline — but a coordinator death here must still
	// surface as an error, not a hang. Heartbeat pings may interleave before
	// the layout lands; skip them.
	conn.SetDeadline(time.Time{})
	var layout msg
	for {
		if err := dec.Decode(&layout); err != nil {
			return true, fmt.Errorf("%w: awaiting cluster layout: %v", ErrCoordinatorDown, err)
		}
		if layout.Type == "cluster" {
			break
		}
		switch layout.Type {
		case "ping":
			continue
		case "evicted":
			return true, ErrEvicted
		default:
			return true, fmt.Errorf("%w: unexpected %q awaiting cluster layout", ErrCoordinatorDown, layout.Type)
		}
	}

	cfg := opts.Config
	p := cfg.Ranks
	lo, hi := cfg.window(slot)
	// Ownership comes from the config's static windows, not the layout: a
	// re-join-time layout lists only live workers, but every rank still has
	// exactly one home slot. Peer addresses come from the layout; a slot
	// absent there stays addressless and its mesh writer idles until a later
	// layout refresh supplies the address.
	owner := make([]int, p)
	for s := 0; s < cfg.Workers; s++ {
		slo, shi := cfg.window(s)
		for r := slo; r < shi; r++ {
			owner[r] = s
		}
	}
	peers := layoutPeers(layout.Workers, slot)

	// Data plane up: machine first (the mesh needs its Deliver), then the
	// mesh (the machine needs its Send). No frame moves until Run below.
	machine := rt.NewClusterMachine(p, lo, hi, mesh)
	err = mesh.Start(hnet.Config{
		Local: slot, Epoch: layout.Epoch, Peers: peers, Owner: owner,
		Deliver: machine.Deliver, Obs: machine.Obs(),
	})
	if err != nil {
		return true, fmt.Errorf("cluster: start mesh: %w", err)
	}
	meshStarted = true
	defer mesh.Close()

	// Graph construction. Initial formation builds collectively: every rank
	// everywhere generates its RMAT chunk and the partitioner's sample-sort
	// exchanges ride the mesh exactly as they ride in-process inboxes. A
	// re-joiner cannot do that — the survivors are serving queries, their
	// machines belong to their engines — so it replays the whole
	// deterministic build alone on a throwaway in-process machine and keeps
	// only its window's partitions.
	buildOn := machine
	if rejoin {
		opts.Logf("cluster: worker %d re-join: local rebuild of scale-%d partitions for ranks [%d,%d)", slot, cfg.Scale, lo, hi)
		buildOn = rt.NewMachine(p)
	} else {
		opts.Logf("cluster: worker %d building scale-%d partition for ranks [%d,%d)", slot, cfg.Scale, lo, hi)
	}
	gen := generators.NewGraph500(cfg.Scale, cfg.Seed)
	parts, err := partition.Build(buildOn, gen.NumVertices(), partition.Undirected(gen.GenerateChunk), partition.EdgeList, cfg.Simplify)
	if err != nil {
		return true, fmt.Errorf("cluster: build: %w", err)
	}
	ghosts := core.BuildGhostTables(parts, cfg.Ghosts)
	for r := range parts {
		if r < lo || r >= hi {
			parts[r], ghosts[r] = nil, nil
		}
	}

	eng, err := engine.Start(engine.Config{
		Machine: machine, Parts: parts, Ghosts: ghosts, Topology: cfg.Topology,
	}, engine.Options{Core: core.Config{Reliable: cfg.Reliable}})
	if err != nil {
		return true, fmt.Errorf("cluster: start engine: %w", err)
	}
	defer eng.Close()

	// The worker's contiguous global master range: results for every vertex
	// in [gLo, gHi) are owned here and shipped back per query.
	gLo, _ := parts[lo].Owners.MasterRange(lo)
	_, gHi := parts[hi-1].Owners.MasterRange(hi - 1)

	if err := enc.Encode(&msg{Type: "ready", Slot: slot, Epoch: layout.Epoch}); err != nil {
		return true, fmt.Errorf("%w: send ready: %v", ErrCoordinatorDown, err)
	}
	opts.Logf("cluster: worker %d ready (vertices [%d,%d), epoch %d)", slot, gLo, gHi, layout.Epoch)

	var (
		mu      sync.Mutex
		tickets = make(map[uint32]*engine.Ticket)
		sendMu  sync.Mutex // result senders run concurrently with the loop
		wg      sync.WaitGroup
	)
	send := func(m *msg) {
		sendMu.Lock()
		enc.Encode(m)
		sendMu.Unlock()
	}
	abortAll := func() {
		mu.Lock()
		for _, tk := range tickets {
			tk.Abort()
		}
		mu.Unlock()
	}

	serveErr := error(nil)
serve:
	for {
		var m msg
		if err := dec.Decode(&m); err != nil {
			serveErr = fmt.Errorf("%w: %v", ErrCoordinatorDown, err)
			break
		}
		switch m.Type {
		case "ping":
			send(&msg{Type: "pong", Slot: slot})
		case "submit":
			spec := *cmp.Or(m.Spec, new(engine.Spec)) // a submit with none is refused as an unknown query type
			tk, err := eng.SubmitRemote(m.QID, spec)
			if err != nil {
				send(&msg{Type: "result", QID: m.QID, Err: err.Error()})
				continue
			}
			mu.Lock()
			tickets[m.QID] = tk
			mu.Unlock()
			wg.Add(1)
			go func(qid uint32, tk *engine.Ticket) {
				defer wg.Done()
				res := tk.Wait()
				mu.Lock()
				delete(tickets, qid)
				mu.Unlock()
				send(&msg{Type: "result", QID: qid, Lo: gLo, Hi: gHi, Part: engine.Part(spec, res, gLo, gHi)})
			}(m.QID, tk)
		case "cancel":
			mu.Lock()
			tk := tickets[m.QID]
			mu.Unlock()
			if tk != nil {
				tk.Cancel()
			}
		case "abort":
			// A worker elsewhere died: every in-flight query is doomed and
			// cooperative drain cannot quiesce (termination waves need every
			// rank of the machine). Force-retire them all; the coordinator
			// has already failed the queries typed.
			opts.Logf("cluster: worker %d force-aborting in-flight queries (peer worker lost)", slot)
			abortAll()
		case "cluster":
			// Layout refresh: a replacement worker healed a dead slot under a
			// bumped epoch. Re-point the mesh — the dead peer's queued frames
			// are dropped and its writer re-dials the new address with the new
			// epoch in the preamble — and ack so the coordinator can count
			// this survivor toward wholeness.
			mesh.Update(m.Epoch, layoutPeers(m.Workers, slot))
			send(&msg{Type: "layout-ack", Slot: slot, Epoch: m.Epoch})
			opts.Logf("cluster: worker %d adopted layout epoch %d", slot, m.Epoch)
		case "evicted":
			serveErr = ErrEvicted
			break serve
		case "shutdown":
			break serve
		}
	}

	if serveErr != nil {
		// The coordinator died or declared us dead with queries possibly in
		// flight. Cooperative drain is not an option — peer workers may
		// already be gone or aborting, so termination waves cannot complete.
		// Force-abort so the engine's Close below cannot hang.
		abortAll()
	}
	wg.Wait()
	opts.Logf("cluster: worker %d shutting down", slot)
	if err := eng.Close(); err != nil {
		return true, err
	}
	return true, serveErr
}

// layoutPeers extracts the mesh dial addresses of every other live worker
// from a layout message.
func layoutPeers(infos []workerInfo, self int) map[int]string {
	peers := make(map[int]string, len(infos))
	for _, wi := range infos {
		if wi.Slot != self && wi.MeshAddr != "" {
			peers[wi.Slot] = wi.MeshAddr
		}
	}
	return peers
}
