package federation

import (
	"testing"
	"time"

	"indiss/internal/core"
	"indiss/internal/simnet"
)

// These tests pin the federation's crash/partition recovery semantics:
// a withdrawal must not be undone by a peer that missed it (tombstones +
// withdraw-back repair), and a peer returning with the same GatewayID
// must be fully re-synced with no stale-hop ghosts.

// TestWithdrawalSurvivesPartitionHeal is the resurrection regression:
// gw-c is partitioned away, the record is withdrawn meanwhile, and after
// the heal gw-c's stale copy must neither re-enter gw-b's view nor
// survive in gw-c's own — the tombstone rejects the ghost and the
// withdraw-back actively repairs the stale holder.
func TestWithdrawalSurvivesPartitionHeal(t *testing.T) {
	n, hosts := fedNet(t, 3)
	views := []*core.ServiceView{core.NewServiceView(), core.NewServiceView(), core.NewServiceView()}
	endpoint(t, hosts[0], views[0], fastCfg("gw-a"))
	endpoint(t, hosts[1], views[1], fastCfg("gw-b",
		simnet.Addr{IP: hosts[0].IP(), Port: DefaultPort},
		simnet.Addr{IP: hosts[2].IP(), Port: DefaultPort}))
	endpoint(t, hosts[2], views[2], fastCfg("gw-c"))

	const url = "soap://10.0.1.2:4004"
	views[0].Put(localRec("clock", url, time.Hour))
	waitFor(t, 5*time.Second, "initial convergence", func() bool {
		_, okB := views[1].Get(core.SDPUPnP, url)
		_, okC := views[2].Get(core.SDPUPnP, url)
		return okB && okC
	})

	// Cut gw-c off, then withdraw at the origin. B relays the
	// withdrawal; C never hears it.
	if err := n.Partition("B", "C"); err != nil {
		t.Fatal(err)
	}
	views[0].Remove(core.SDPUPnP, url)
	waitFor(t, 5*time.Second, "withdrawal reaching gw-b", func() bool {
		_, ok := views[1].Get(core.SDPUPnP, url)
		return !ok
	})
	if _, ok := views[2].Get(core.SDPUPnP, url); !ok {
		t.Fatal("partitioned gw-c lost the record without hearing the withdrawal")
	}

	// Heal. gw-c reconnects and re-announces its stale copy; the
	// tombstone at gw-b must reject it and repair gw-c.
	if err := n.Heal("B", "C"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "ghost repair at gw-c", func() bool {
		_, ok := views[2].Get(core.SDPUPnP, url)
		return !ok
	})
	// And across several anti-entropy rounds the ghost must stay dead
	// everywhere.
	time.Sleep(400 * time.Millisecond)
	for i, v := range views {
		if _, ok := v.Get(core.SDPUPnP, url); ok {
			t.Errorf("withdrawn record resurrected in view %d", i)
		}
	}
}

// TestStaleSnapshotDoesNotResurrectWithdrawal: a digest summary works
// from a view snapshot taken before it locks the endpoint, so it can see
// a local record the distributor has withdrawn and buried in between.
// Neither the summary nor a repair push may mint that record an epoch
// above its grave: the peer would admit the announce as a
// re-registration.
func TestStaleSnapshotDoesNotResurrectWithdrawal(t *testing.T) {
	_, hosts := fedNet(t, 1)
	view := core.NewServiceView()
	e := endpoint(t, hosts[0], view, fastCfg("gw-a"))

	const url = "soap://10.0.1.2:4004"
	key := viewKey(core.SDPUPnP, url)
	state := func() (epoch, buried bool) {
		e.mu.Lock()
		defer e.mu.Unlock()
		_, epoch = e.epochs[key]
		_, buried = e.tombs[key]
		return epoch, buried
	}
	view.Put(localRec("clock", url, time.Hour))
	waitFor(t, 5*time.Second, "the distributor minting the epoch", func() bool {
		epoch, _ := state()
		return epoch
	})
	snapshot := view.Find("", time.Now())
	view.Remove(core.SDPUPnP, url)
	waitFor(t, 5*time.Second, "the distributor burying the withdrawal", func() bool {
		epoch, buried := state()
		return buried && !epoch
	})

	if agg := e.summarize(snapshot, time.Now())["gw-a"]; agg != nil && agg.sum.LiveCount != 0 {
		t.Errorf("summary counts the withdrawn record: %+v", agg.sum)
	}
	if a, ok := e.announceFor(snapshot[0]); ok {
		t.Errorf("repair push announces the withdrawn record at epoch %d", a.Epoch)
	}
	if epoch, _ := state(); epoch {
		t.Error("the withdrawn record was minted an epoch above its grave")
	}
}

// TestReregistrationOutlivesTombstone: a genuine re-registration (fresh
// lifetime) must cross the federation even though the key was recently
// withdrawn — the grave only blocks stale echoes.
func TestReregistrationOutlivesTombstone(t *testing.T) {
	_, hosts := fedNet(t, 2)
	viewA, viewB := core.NewServiceView(), core.NewServiceView()
	endpoint(t, hosts[0], viewA, fastCfg("gw-a"))
	endpoint(t, hosts[1], viewB, fastCfg("gw-b", simnet.Addr{IP: hosts[0].IP(), Port: DefaultPort}))

	const url = "service:clock://10.0.1.2:4005"
	rec := localRec("clock", url, time.Hour)
	rec.Origin = core.SDPSLP
	viewA.Put(rec)
	waitFor(t, 5*time.Second, "sync", func() bool {
		_, ok := viewB.Get(core.SDPSLP, url)
		return ok
	})
	viewA.Remove(core.SDPSLP, url)
	waitFor(t, 5*time.Second, "withdraw", func() bool {
		_, ok := viewB.Get(core.SDPSLP, url)
		return !ok
	})

	// The service comes back: same key, fresh lifetime.
	rec2 := localRec("clock", url, 2*time.Hour)
	rec2.Origin = core.SDPSLP
	viewA.Put(rec2)
	waitFor(t, 5*time.Second, "re-registration crossing the grave", func() bool {
		_, ok := viewB.Get(core.SDPSLP, url)
		return ok
	})
}

// TestShorterTTLReregistrationCrossesGrave: a service withdrawn with a
// long outstanding lifetime and re-registered with a much shorter one
// must still cross the federation — including the second hop, where the
// announce arrives as transit. The instance epoch, not the lifetime
// comparison, is what distinguishes the re-registration from a stale
// echo: its expiry lies far inside the grave's window.
func TestShorterTTLReregistrationCrossesGrave(t *testing.T) {
	_, hosts := fedNet(t, 3)
	views := []*core.ServiceView{core.NewServiceView(), core.NewServiceView(), core.NewServiceView()}
	endpoint(t, hosts[0], views[0], fastCfg("gw-a"))
	endpoint(t, hosts[1], views[1], fastCfg("gw-b",
		simnet.Addr{IP: hosts[0].IP(), Port: DefaultPort},
		simnet.Addr{IP: hosts[2].IP(), Port: DefaultPort}))
	endpoint(t, hosts[2], views[2], fastCfg("gw-c"))

	const url = "soap://10.0.1.2:4004"
	// First instance: half an hour of lifetime.
	views[0].Put(localRec("clock", url, 30*time.Minute))
	waitFor(t, 5*time.Second, "initial two-hop convergence", func() bool {
		_, ok := views[2].Get(core.SDPUPnP, url)
		return ok
	})

	// Withdrawn with ~30min outstanding: every gateway's grave is long.
	views[0].Remove(core.SDPUPnP, url)
	waitFor(t, 5*time.Second, "withdrawal reaching both hops", func() bool {
		_, okB := views[1].Get(core.SDPUPnP, url)
		_, okC := views[2].Get(core.SDPUPnP, url)
		return !okB && !okC
	})

	// Re-registered, now with only a minute of lifetime — far inside
	// the graves' windows. It must still reach the far end of the chain.
	views[0].Put(localRec("clock", url, time.Minute))
	waitFor(t, 5*time.Second, "short-TTL re-registration crossing two graves", func() bool {
		_, okB := views[1].Get(core.SDPUPnP, url)
		_, okC := views[2].Get(core.SDPUPnP, url)
		return okB && okC
	})
}

// TestPeerRestartSameIDFullResync: a peer that crashes and returns with
// the same GatewayID and an empty view is fully re-synced by the
// digest exchange on connect, with sane hop counts (no stale-hop ghosts), and
// the records the dead incarnation originated fade on their TTL.
func TestPeerRestartSameIDFullResync(t *testing.T) {
	_, hosts := fedNet(t, 2)
	viewA, viewB := core.NewServiceView(), core.NewServiceView()
	endpoint(t, hosts[0], viewA, fastCfg("gw-a", simnet.Addr{IP: hosts[1].IP(), Port: DefaultPort}))
	eb, err := New(hosts[1], viewB, fastCfg("gw-b"))
	if err != nil {
		t.Fatal(err)
	}

	const aURL = "soap://10.0.1.2:4004"
	const bURL = "soap://10.0.2.2:4004"
	viewA.Put(localRec("clock", aURL, time.Hour))
	// B's own record carries a short TTL: after B dies with it, A's copy
	// must fade within that TTL, not linger.
	viewB.Put(localRec("lamp", bURL, 1200*time.Millisecond))
	waitFor(t, 5*time.Second, "initial cross-sync", func() bool {
		_, okB := viewB.Get(core.SDPUPnP, aURL)
		_, okA := viewA.Get(core.SDPUPnP, bURL)
		return okB && okA
	})

	// Crash B: host down so no farewell escapes, endpoint closed, host
	// back up, a NEW endpoint under the SAME GatewayID with a fresh view.
	hosts[1].SetDown(true)
	eb.Close()
	hosts[1].SetDown(false)
	viewB2 := core.NewServiceView()
	eb2, err := New(hosts[1], viewB2, fastCfg("gw-b"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eb2.Close() })

	// Full re-sync: the restarted peer learns A's record again, at the
	// direct-path hop count.
	waitFor(t, 5*time.Second, "re-sync after restart", func() bool {
		rec, ok := viewB2.Get(core.SDPUPnP, aURL)
		return ok && rec.Hops == 1 && rec.OriginGW == "gw-a"
	})
	// The restarted peer must NOT have been taught its own dead record
	// back (resurrection at the origin), and A's stale copy of it must
	// fade within the record's own TTL.
	if _, ok := viewB2.Get(core.SDPUPnP, bURL); ok {
		t.Fatal("restarted gateway re-learned its own dead record from a peer")
	}
	waitFor(t, 5*time.Second, "stale record fading on its TTL", func() bool {
		_, ok := viewA.Get(core.SDPUPnP, bURL)
		return !ok
	})
}
