package federation

import (
	"time"

	"indiss/internal/core"
	"indiss/internal/viewstore"
)

// Persistence is the endpoint's hook into the gateway's view store.
// Two duties meet here. Outbound, the endpoint mirrors its epoch and
// grave state into the log as it changes, so a restart does not forget
// which record instances it vouched for or buried. Inbound, a warm
// boot seeds the maps back — with the view already replayed, the
// endpoint's first digest then hashes identically to what peers
// remember, and anti-entropy repairs only the drift accumulated while
// the gateway was down instead of re-learning the world.
//
// *viewstore.Store satisfies the interface. Nil disables persistence.
type Persistence interface {
	// PersistEpoch mirrors one key's record-instance epoch; zero marks
	// the instance gone.
	PersistEpoch(key string, epoch uint64)
	// PersistGrave mirrors one withdrawal tombstone.
	PersistGrave(g viewstore.Grave)
	// RecoveredEpochs returns the epoch map the last warm boot
	// replayed.
	RecoveredEpochs() map[string]uint64
	// RecoveredGraves returns the replayed, still-live tombstones.
	RecoveredGraves() []viewstore.Grave
}

// persistEpoch mirrors an epoch change when persistence is wired.
// Callers hold e.mu; the store's own lock nests inside it and never
// the other way around.
func (e *Endpoint) persistEpoch(key string, epoch uint64) {
	if p := e.cfg.Persistence; p != nil {
		p.PersistEpoch(key, epoch)
	}
}

// persistGrave mirrors a (merged) tombstone when persistence is wired.
// Callers hold e.mu.
func (e *Endpoint) persistGrave(t tombstone) {
	if p := e.cfg.Persistence; p != nil {
		p.PersistGrave(viewstore.Grave{
			OriginGW: t.originGW,
			Origin:   t.origin,
			Kind:     t.kind,
			URL:      t.url,
			Epoch:    t.epoch,
			Expires:  t.expires.UnixMilli(),
		})
	}
}

// seedFromPersistence restores the epoch and grave maps from the warm
// boot, before any goroutine runs. A recovered grave is dropped when
// the replayed view already holds a provably later instance of the
// key — the exact staleness test handleAnnounce applies — so disk
// state can never re-bury a legitimate re-registration.
func (e *Endpoint) seedFromPersistence() {
	p := e.cfg.Persistence
	if p == nil {
		return
	}
	for key, epoch := range p.RecoveredEpochs() {
		if epoch != 0 {
			e.epochs[key] = epoch
		}
	}
	for _, g := range p.RecoveredGraves() {
		key := viewKey(core.SDP(g.Origin), g.URL)
		if _, live := e.view.Get(core.SDP(g.Origin), g.URL); live {
			if ep := e.epochs[key]; ep > g.Epoch {
				continue // a later instance outlived the grave
			}
		}
		e.tombs[key] = tombstone{
			originGW: g.OriginGW,
			origin:   g.Origin,
			kind:     g.Kind,
			url:      g.URL,
			epoch:    g.Epoch,
			expires:  time.UnixMilli(g.Expires),
		}
	}
	e.warmEpochs = len(e.epochs)
	e.warmGraves = len(e.tombs)
}
