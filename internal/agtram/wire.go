package agtram

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/faultnet"
	"repro/internal/mechanism"
	"repro/internal/replication"
)

// The wire protocol of the semi-distributed mechanism (Section 1, Figure 2).
// An agent opens a link and sends one hello naming its server; then, every
// round, it sends one bid up and receives one award broadcast down, until it
// leaves with a None bid or the mechanism sends Done. Frames are
// gob-encoded. The protocol, the handshake, the round loop and the eviction
// path are the same whatever carries the bytes: SolveNetwork runs them over
// net.Pipe, SolveTCP over TCP sockets.

// helloMsg is the first frame on a link: the server the agent speaks for.
// Every later bid on the link is attributed to this id.
type helloMsg struct {
	Agent int
}

// bidMsg is an agent's report for the current round. It carries no agent
// id: the link's hello decides whose bid it is. None=true means the agent
// has no beneficial candidate left and (per Figure 2 line 18) leaves the
// player set.
type bidMsg struct {
	Object int32
	Value  int64
	None   bool
}

// awardMsg is the mechanism's broadcast. Done=true terminates the protocol.
type awardMsg struct {
	Object  int32
	Server  int32
	Payment int64
	Done    bool
}

// errHello marks an agent whose hello never left: the mechanism can never
// hear from it, so the agent's launcher reports it to the handshake at once.
var errHello = errors.New("sending hello")

// Dial retry policy of the in-process TCP agents: a handful of attempts with
// capped exponential backoff, matching what a deployed agent would do
// against a central body that is still coming up.
const (
	dialAttempts   = 3
	dialBackoffMin = 10 * time.Millisecond
	dialBackoffMax = 250 * time.Millisecond
)

// RunRemoteAgent speaks the agent side of the AGT-RAM wire protocol over an
// established connection: hello, then rounds of one bid up / one award
// down, leaving the game by sending a bid with None set. A real deployment
// runs this in the server process; SolveNetwork and SolveTCP run it in a
// goroutine per agent. The function returns when the protocol ends, the
// connection breaks, or ctx is cancelled — cancellation closes conn to
// unblock any in-flight codec call and returns ctx.Err() wrapped with the
// package name.
func RunRemoteAgent(ctx context.Context, conn net.Conn, p *replication.Problem, agentID int) error {
	return runRemoteAgent(ctx, conn, p, agentID, 0)
}

// runRemoteAgent is RunRemoteAgent plus fault injection: when crashRound is
// positive the agent closes its connection at the start of that (1-based)
// round instead of bidding — a mid-game crash as the mechanism sees it.
func runRemoteAgent(ctx context.Context, conn net.Conn, p *replication.Problem, agentID, crashRound int) error {
	if agentID < 0 || agentID >= p.M {
		return fmt.Errorf("agtram: agent id %d out of range [0,%d)", agentID, p.M)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-stop:
		}
	}()
	// linkErr reports a failed codec call; a link broken by cancellation is
	// the cancellation, not a fault.
	linkErr := func(what, err error) error {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("agtram: %w", cerr)
		}
		return fmt.Errorf("agtram: %w: %w", what, err)
	}
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	if err := enc.Encode(helloMsg{Agent: agentID}); err != nil {
		return linkErr(errHello, err)
	}
	a := newAgentState(p, agentID)
	for round := 1; ; round++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("agtram: %w", err)
		}
		if crashRound > 0 && round == crashRound {
			conn.Close()
			return fmt.Errorf("agtram: agent %d crashed at round %d (injected)", agentID, round)
		}
		obj, val, ok := a.best()
		if err := enc.Encode(bidMsg{Object: obj, Value: val, None: !ok}); err != nil {
			return linkErr(errors.New("sending bid"), err)
		}
		if !ok {
			return nil
		}
		var aw awardMsg
		if err := dec.Decode(&aw); err != nil {
			return linkErr(errors.New("reading award"), err)
		}
		if aw.Done {
			return nil
		}
		if int(aw.Server) == agentID {
			a.won(aw.Object)
		} else {
			a.observe(aw.Object, p.Cost.At(agentID, int(aw.Server)))
		}
	}
}

// dialAgent connects one agent to the mechanism over TCP with retry and
// capped backoff.
func dialAgent(ctx context.Context, addr string, timeout time.Duration) (net.Conn, error) {
	d := net.Dialer{Timeout: timeout}
	backoff := dialBackoffMin
	var lastErr error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(backoff)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			case <-t.C:
			}
			backoff = min(2*backoff, dialBackoffMax)
		}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, fmt.Errorf("dial %s (%d attempts): %w", addr, dialAttempts, lastErr)
}

// pipeListener is an in-process net.Listener: each dial hands one end of a
// fresh net.Pipe to Accept, so the in-process engine runs the TCP engine's
// handshake, deadlines and eviction path without sockets.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial returns the agent's end of a new pipe once Accept has taken the
// other; it fails when the listener closes or ctx ends first.
func (l *pipeListener) dial(ctx context.Context) (net.Conn, error) {
	mside, aside := net.Pipe()
	var err error
	select {
	case l.conns <- mside:
		return aside, nil
	case <-l.done:
		err = net.ErrClosed
	case <-ctx.Done():
		err = ctx.Err()
	}
	mside.Close()
	aside.Close()
	return nil, err
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// SolveNetwork runs the wire protocol with every agent behind an in-process
// net.Pipe speaking gob — the shape of a deployment where the servers and
// the central body are separate processes, without sockets. It is SolveTCP
// with a different transport: the same handshake, round loop, deadlines,
// fault handling and teardown (see SolveTCP). The allocation sequence is
// identical to Solve.
func SolveNetwork(ctx context.Context, p *replication.Problem, cfg Config) (*Result, error) {
	if err := checkWire(ctx, p, cfg); err != nil {
		return nil, err
	}
	ln := newPipeListener()
	return solveWire(ctx, p, cfg, ln, ln.dial)
}

// SolveTCP runs the mechanism over real TCP sockets: it listens on addr
// (use "127.0.0.1:0" for an ephemeral port), spawns one agent goroutine per
// active server that dials in and speaks RunRemoteAgent, and runs the
// central mechanism over the accepted connections. The agent side only
// needs the public problem data and its own id, so the same protocol runs
// unchanged with agents in separate processes or hosts. The allocation
// sequence is identical to Solve.
//
// The wire engines degrade gracefully instead of failing atomically. An
// agent is EVICTED — recorded in Result.Evictions (and Config.OnEvict) and
// removed from the player set, while the auction continues over the
// remaining bidders — when its dial or hello fails, when its hello does not
// arrive within Config.HandshakeTimeout, when its link breaks or misses a
// Config.RoundTimeout deadline mid-game, or when it sends a bid its server
// cannot take (an object it holds or cannot fit, or a non-positive value).
// A connection that never identifies itself cannot block the game: each
// hello read carries its own deadline and the identification phase as a
// whole is bounded. With no faults and no deadline hits the run is
// bit-identical to Solve.
//
// ctx is checked at the top of every round; on cancellation the listener
// and every link close, so accepts and codec calls blocked on them unwind,
// every agent goroutine exits, and SolveTCP returns ctx.Err() wrapped with
// the package name.
func SolveTCP(ctx context.Context, p *replication.Problem, cfg Config, addr string) (*Result, error) {
	if err := checkWire(ctx, p, cfg); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("agtram: listen: %w", err)
	}
	if cfg.OnListen != nil {
		cfg.OnListen(ln.Addr())
	}
	timeout := cfg.handshakeTimeout()
	return solveWire(ctx, p, cfg, ln, func(ctx context.Context) (net.Conn, error) {
		return dialAgent(ctx, ln.Addr().String(), timeout)
	})
}

// checkWire rejects what no wire engine can run.
func checkWire(ctx context.Context, p *replication.Problem, cfg Config) error {
	if p == nil {
		return fmt.Errorf("agtram: nil problem")
	}
	if cfg.Valuation == ExactDelta {
		return fmt.Errorf("agtram: exact-delta valuation needs global state and cannot run distributed")
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("agtram: %w", err)
	}
	return nil
}

// wirePeer is the mechanism's end of one identified agent link.
type wirePeer struct {
	id   int
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// agentFailure is an agent's own report that its dial or hello failed.
type agentFailure struct {
	agent  int
	reason string
}

// wireGame is the central mechanism of the wire engines: the schema, the
// result being built, and the eviction bookkeeping.
type wireGame struct {
	cfg Config
	res *Result
}

func newWireGame(p *replication.Problem, cfg Config) *wireGame {
	return &wireGame{cfg: cfg, res: &Result{Schema: p.NewSchema(), Payments: make([]int64, p.M)}}
}

func (g *wireGame) evict(agent, round int, reason string) {
	ev := Eviction{Agent: agent, Round: round, Reason: reason}
	g.res.Evictions = append(g.res.Evictions, ev)
	if g.cfg.OnEvict != nil {
		g.cfg.OnEvict(ev)
	}
}

// drop evicts a peer mid-game and closes its link.
func (g *wireGame) drop(pe *wirePeer, round int, reason string) {
	g.evict(pe.id, round, reason)
	pe.conn.Close()
}

// deadline is the per-frame deadline of the game; zero means none.
func (g *wireGame) deadline() time.Time {
	if g.cfg.RoundTimeout > 0 {
		return time.Now().Add(g.cfg.RoundTimeout)
	}
	return time.Time{}
}

// solveWire runs the mechanism over ln. It launches one agent goroutine per
// active server, each reaching the mechanism through dial, identifies the
// agents, plays the rounds, and returns only after every link, the listener
// and every agent goroutine are gone.
func solveWire(ctx context.Context, p *replication.Problem, cfg Config, ln net.Listener, dial func(context.Context) (net.Conn, error)) (*Result, error) {
	defer ln.Close()
	var expected []int
	for i := 0; i < p.M; i++ {
		if newAgentState(p, i).active() {
			expected = append(expected, i)
		}
	}
	g := newWireGame(p, cfg)

	// Launch the agents; in a deployment these are remote processes. An
	// agent whose dial or hello fails says so, so the handshake never waits
	// for a hello that cannot arrive. Any later agent-side error is the
	// broken link the mechanism's own reads see, so it is not reported.
	failed := make(chan agentFailure, len(expected))
	var wg sync.WaitGroup
	defer wg.Wait()
	for _, id := range expected {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if cfg.Faults.DialFails(id) {
				failed <- agentFailure{id, "dial failed: injected unroutable host"}
				return
			}
			conn, err := dial(ctx)
			if err != nil {
				failed <- agentFailure{id, fmt.Sprintf("dial failed: %v", err)}
				return
			}
			defer conn.Close()
			err = runRemoteAgent(ctx, faultnet.Wrap(conn, id, cfg.Faults), p, id, cfg.Faults.CrashRound(id))
			if errors.Is(err, errHello) {
				failed <- agentFailure{id, err.Error()}
			}
		}(id)
	}

	peers, err := g.handshake(ctx, ln, expected, failed)
	if err != nil {
		return nil, err
	}
	if err := g.play(ctx, peers); err != nil {
		return nil, err
	}
	return g.res, nil
}

// handshake identifies the agents. It accepts links on ln and reads each
// hello under its own deadline, so no connection — silent, slow or hostile
// — can block the others. It returns the identified links in server order
// once every expected agent has either said hello or reported a failure,
// or when Config.HandshakeTimeout passes; agents still unresolved then are
// evicted before the first round. It closes ln and every link it does not
// return.
func (g *wireGame) handshake(ctx context.Context, ln net.Listener, expected []int, failed <-chan agentFailure) ([]*wirePeer, error) {
	timeout := g.cfg.handshakeTimeout()
	// One slot per expected agent plus slack for strangers, whose hellos are
	// dropped (and their links closed) once the buffer is full.
	hellos := make(chan *wirePeer, len(expected)+8)
	var (
		mu      sync.Mutex
		over    bool
		pending = make(map[net.Conn]bool)
		wg      sync.WaitGroup
	)
	// Ending the phase fixes the game's link set: the listener closes, and
	// links still unidentified close too, which unblocks their hello reads.
	// Hellos that lost the race with the end close with them.
	defer func() {
		mu.Lock()
		over = true
		for c := range pending {
			c.Close()
		}
		mu.Unlock()
		ln.Close()
		wg.Wait()
		close(hellos)
		for pe := range hellos {
			pe.conn.Close()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed: phase over or ctx fired
			}
			mu.Lock()
			if over {
				mu.Unlock()
				conn.Close()
				continue
			}
			pending[conn] = true
			wg.Add(1)
			mu.Unlock()
			go func() {
				defer wg.Done()
				conn.SetReadDeadline(time.Now().Add(timeout))
				dec := gob.NewDecoder(conn)
				var h helloMsg
				err := dec.Decode(&h)
				conn.SetReadDeadline(time.Time{})
				mu.Lock()
				delete(pending, conn)
				late := over
				mu.Unlock()
				if err != nil || late {
					conn.Close()
					return
				}
				select {
				case hellos <- &wirePeer{id: h.Agent, conn: conn, enc: gob.NewEncoder(conn), dec: dec}:
				default:
					conn.Close() // channel full: flooded with impostors
				}
			}()
		}
	}()

	unresolved := make(map[int]bool, len(expected))
	for _, id := range expected {
		unresolved[id] = true
	}
	peers := make(map[int]*wirePeer, len(expected))
	phase := time.NewTimer(timeout)
	defer phase.Stop()
	for len(unresolved) > 0 {
		select {
		case pe := <-hellos:
			if !unresolved[pe.id] {
				pe.conn.Close() // impostor, duplicate, or already failed
				continue
			}
			delete(unresolved, pe.id)
			peers[pe.id] = pe
		case f := <-failed:
			if unresolved[f.agent] {
				delete(unresolved, f.agent)
				g.evict(f.agent, 0, f.reason)
			}
		case <-phase.C:
			for _, id := range expected {
				if unresolved[id] {
					g.evict(id, 0, "handshake timeout: no hello")
				}
			}
			unresolved = nil
		case <-ctx.Done():
			for _, pe := range peers {
				pe.conn.Close()
			}
			return nil, fmt.Errorf("agtram: %w", ctx.Err())
		}
	}
	order := make([]*wirePeer, 0, len(peers))
	for _, id := range expected {
		if pe := peers[id]; pe != nil {
			order = append(order, pe)
		}
	}
	return order, nil
}

// play runs the auction rounds over identified links, reading bids in the
// order given. Each bid is attributed to its link's agent and checked
// against the schema; a link that breaks, misses a deadline or sends a bid
// its server cannot take is evicted, and the game continues over the rest.
// play closes every link before it returns; when ctx fires, a watcher
// closes them at once so codec calls blocked on a link unwind.
func (g *wireGame) play(ctx context.Context, order []*wirePeer) error {
	links := make([]net.Conn, len(order))
	for i, pe := range order {
		links[i] = pe.conn
	}
	stop := make(chan struct{})
	defer func() {
		close(stop)
		for _, c := range links {
			c.Close()
		}
	}()
	go func() {
		select {
		case <-ctx.Done():
			for _, c := range links {
				c.Close()
			}
		case <-stop:
		}
	}()

	res, schema := g.res, g.res.Schema
	bids := make([]mechanism.Bid, 0, len(order))
	for len(order) > 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("agtram: %w", err)
		}
		roundNo := res.Rounds + 1
		bids = bids[:0]
		live := order[:0]
		for _, pe := range order {
			pe.conn.SetReadDeadline(g.deadline())
			var m bidMsg
			if err := pe.dec.Decode(&m); err != nil {
				if cerr := ctx.Err(); cerr != nil {
					return fmt.Errorf("agtram: %w", cerr)
				}
				// Crashed, severed, truncated or too slow: out of the game.
				g.drop(pe, roundNo, fmt.Sprintf("reading bid: %v", err))
				continue
			}
			if m.None {
				pe.conn.Close() // left the game
				continue
			}
			if err := checkBid(schema, pe.id, m); err != nil {
				g.drop(pe, roundNo, fmt.Sprintf("invalid bid: %v", err))
				continue
			}
			bids = append(bids, mechanism.Bid{Agent: pe.id, Item: m.Object, Value: m.Value})
			live = append(live, pe)
		}
		order = live
		// Live agents now await an award, so a Done frame cannot deadlock.
		if g.cfg.MaxRounds > 0 && res.Rounds >= g.cfg.MaxRounds {
			break
		}
		round, ok := mechanism.RunRound(bids, g.cfg.Payment)
		if !ok {
			break
		}
		winner := round.Winner
		if _, err := schema.PlaceReplica(winner.Item, winner.Agent); err != nil {
			return fmt.Errorf("agtram: winning bid infeasible: %w", err)
		}
		alloc := Allocation{
			Round: res.Rounds, Object: winner.Item, Server: int32(winner.Agent),
			Value: winner.Value, Payment: round.Payment,
		}
		res.Allocations = append(res.Allocations, alloc)
		res.Payments[winner.Agent] += round.Payment
		res.Rounds++
		res.Valuations += int64(len(bids))
		if g.cfg.OnRound != nil {
			g.cfg.OnRound(alloc)
		}
		aw := awardMsg{Object: winner.Item, Server: int32(winner.Agent), Payment: round.Payment}
		live = order[:0]
		for _, pe := range order {
			pe.conn.SetWriteDeadline(g.deadline())
			if err := pe.enc.Encode(aw); err != nil {
				if cerr := ctx.Err(); cerr != nil {
					return fmt.Errorf("agtram: %w", cerr)
				}
				// A committed placement stands even if its winner dies
				// right after; the agent is out of the rest of the game.
				g.drop(pe, roundNo, fmt.Sprintf("broadcasting award: %v", err))
				continue
			}
			live = append(live, pe)
		}
		order = live
	}
	for _, pe := range order {
		pe.conn.SetWriteDeadline(g.deadline())
		_ = pe.enc.Encode(awardMsg{Done: true})
	}
	return nil
}

// checkBid rejects a bid that an honest agent's local state never
// produces: a non-positive value, or an object the sender's server cannot
// take (unknown, already held, or larger than its residual capacity).
// Checking at read time also keeps every winning bid placeable.
func checkBid(s *replication.Schema, agent int, m bidMsg) error {
	if m.Value <= 0 {
		return fmt.Errorf("non-positive value %d for object %d", m.Value, m.Object)
	}
	return s.CanPlace(m.Object, agent)
}
