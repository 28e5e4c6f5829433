package agtram

import (
	"context"
	"encoding/gob"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/replication"
	"repro/internal/testutil"
)

// wireInstance is small enough that a whole wire game runs in a few
// milliseconds, which the fuzz target needs. Its low capacity leaves every
// agent objects it cannot fit.
var wireInstance = testutil.InstanceConfig{
	Servers: 6, Objects: 20, Requests: 1500, RWRatio: 0.8,
	CapacityPercent: 8, EdgeP: 0.5, Seed: 9,
}

// wireLinks links every active agent of p to the mechanism over net.Pipe
// and reads each hello as the handshake does, returning the mechanism's
// ends in server order for wireGame.play. Agent bad speaks through script
// instead of RunRemoteAgent: script gets the agent's end of the link and
// the encoder that has just sent bad's hello. wait blocks until every
// agent side has returned.
func wireLinks(t testing.TB, p *replication.Problem, bad int, script func(*gob.Encoder, net.Conn)) (peers []*wirePeer, wait func()) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < p.M; i++ {
		if !newAgentState(p, i).active() {
			continue
		}
		mside, aside := net.Pipe()
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer aside.Close()
			if id != bad {
				_ = RunRemoteAgent(context.Background(), aside, p, id)
				return
			}
			enc := gob.NewEncoder(aside)
			if enc.Encode(helloMsg{Agent: id}) == nil {
				script(enc, aside)
			}
		}(i)
		dec := gob.NewDecoder(mside)
		var h helloMsg
		if err := dec.Decode(&h); err != nil || h.Agent != i {
			t.Fatalf("hello on link %d: agent %d, err %v", i, h.Agent, err)
		}
		peers = append(peers, &wirePeer{id: i, conn: mside, enc: gob.NewEncoder(mside), dec: dec})
	}
	return peers, wg.Wait
}

// A peer that bids for an object its server cannot take is evicted with
// reason "invalid bid" and the game goes on over the honest agents: no
// error, and the placement keeps every schema invariant.
func TestWireInvalidBidEvicts(t *testing.T) {
	p := testutil.MustBuild(wireInstance)
	bad := activeAgent(t, p)
	w := p.Work
	residual := p.Capacity[bad] - p.PrimaryLoad(bad)
	held, tooBig := int32(-1), int32(-1)
	for k := int32(0); int(k) < p.N; k++ {
		switch {
		case int(w.Primary[k]) == bad && held < 0:
			held = k
		case int(w.Primary[k]) != bad && w.ObjectSize[k] > residual && tooBig < 0:
			tooBig = k
		}
	}
	if held < 0 || tooBig < 0 {
		t.Fatalf("instance lacks the objects the test needs: held=%d tooBig=%d", held, tooBig)
	}
	for _, tc := range []struct {
		name   string
		object int32
	}{
		{"object-already-held", held},
		{"object-above-residual", tooBig},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testutil.LeakCheck(t)
			peers, wait := wireLinks(t, p, bad, func(enc *gob.Encoder, conn net.Conn) {
				if enc.Encode(bidMsg{Object: tc.object, Value: 1 << 40}) == nil {
					io.Copy(io.Discard, conn) // until the mechanism hangs up
				}
			})
			g := newWireGame(p, Config{})
			err := g.play(context.Background(), peers)
			wait()
			if err != nil {
				t.Fatalf("solve errored instead of evicting: %v", err)
			}
			ev := assertEvicted(t, g.res, bad)
			if ev.Round != 1 || !strings.Contains(ev.Reason, "invalid bid") {
				t.Fatalf("eviction = %+v, want round 1 with an invalid-bid reason", ev)
			}
			if len(g.res.Evictions) != 1 {
				t.Fatalf("honest agents evicted too: %+v", g.res.Evictions)
			}
			if g.res.Rounds == 0 {
				t.Fatal("the honest agents placed nothing after the eviction")
			}
		})
	}
}

// FuzzWireBids feeds arbitrary bytes as one peer's bid stream, after a
// valid hello, while every other agent is honest. The mechanism must not
// panic or fail: the bad peer is evicted or leaves, nobody else is evicted,
// and the placement keeps every schema invariant.
func FuzzWireBids(f *testing.F) {
	p := testutil.MustBuild(wireInstance)
	bad := activeAgent(f, p)
	f.Fuzz(func(t *testing.T, stream []byte) {
		peers, wait := wireLinks(t, p, bad, func(_ *gob.Encoder, conn net.Conn) {
			drained := make(chan struct{})
			go func() {
				io.Copy(io.Discard, conn) // awards, if any bid wins
				close(drained)
			}()
			conn.Write(stream)
			conn.Close()
			<-drained
		})
		g := newWireGame(p, Config{})
		err := g.play(context.Background(), peers)
		wait()
		if err != nil {
			t.Fatalf("mechanism failed on a bad peer: %v", err)
		}
		if err := g.res.Schema.ValidateInvariants(); err != nil {
			t.Fatal(err)
		}
		for _, ev := range g.res.Evictions {
			if ev.Agent != bad {
				t.Fatalf("honest agent evicted: %+v", ev)
			}
		}
		if len(g.res.Evictions) > 0 {
			assertEvicted(t, g.res, bad)
		}
	})
}
