package schema

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// Registry is a content-addressed store of validated specs. The id of
// a spec is its Fingerprint — registering the same declarative content
// twice is idempotent and returns the same id — and the spec's Name is
// resolved as a mutable alias as long as it doesn't collide with a
// different spec's name. Safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	byID   map[string]*Spec
	byName map[string]string // name -> id
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: map[string]*Spec{}, byName: map[string]string{}}
}

// ErrNameTaken reports a name collision at registration: the incoming
// spec's name is already bound to different content. Callers surface
// it as a conflict (HTTP 409) rather than a validation failure.
type ErrNameTaken struct {
	Name       string
	ExistingID string
}

func (e *ErrNameTaken) Error() string {
	return fmt.Sprintf("schema name %q is already registered as %s with different content", e.Name, e.ExistingID)
}

// Register validates the spec and installs it, returning its
// content-addressed id. existed reports that identical content was
// already registered (the call is then a no-op).
func (r *Registry) Register(s *Spec) (id string, existed bool, err error) {
	if err := s.Validate(); err != nil {
		return "", false, err
	}
	// Deep-copy through the canonical JSON the fingerprint hashes:
	// the stored spec can then never drift from its content address,
	// however the caller mutates its own copy afterwards.
	canon := s.canonicalJSON()
	id = fingerprintOf(canon)
	var cp Spec
	if err := json.Unmarshal(canon, &cp); err != nil {
		return "", false, fmt.Errorf("schema: round-tripping spec %s: %w", s.Name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byID[id]; ok {
		return id, true, nil
	}
	if other, ok := r.byName[s.Name]; ok && other != id {
		return "", false, &ErrNameTaken{Name: s.Name, ExistingID: other}
	}
	r.byID[id] = &cp
	r.byName[s.Name] = id
	return id, false, nil
}

// MustRegister is Register for statically known specs (built-ins);
// it panics on error.
func (r *Registry) MustRegister(s *Spec) string {
	id, _, err := r.Register(s)
	if err != nil {
		panic(fmt.Sprintf("schema: registering %s: %v", s.Name, err))
	}
	return id
}

// Resolve looks a spec up by content-addressed id or by name.
func (r *Registry) Resolve(ref string) (*Spec, string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if s, ok := r.byID[ref]; ok {
		return s, ref, true
	}
	if id, ok := r.byName[ref]; ok {
		return r.byID[id], id, true
	}
	return nil, "", false
}

// Entry is one registry listing row.
type Entry struct {
	ID   string
	Spec *Spec
}

// List returns the registered specs sorted by name (id breaks ties —
// names are unique today, but the order must stay deterministic if
// that ever changes).
func (r *Registry) List() []Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Entry, 0, len(r.byID))
	for id, s := range r.byID {
		out = append(out, Entry{ID: id, Spec: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Spec.Name != out[j].Spec.Name {
			return out[i].Spec.Name < out[j].Spec.Name
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Export returns the canonical JSON document of the spec registered
// under ref (id or name) — the serializable form a persistence layer
// writes at registration time and replays through Import at boot.
// Importing the exported bytes into any registry yields the same
// content-addressed id.
func (r *Registry) Export(ref string) ([]byte, bool) {
	s, _, ok := r.Resolve(ref)
	if !ok {
		return nil, false
	}
	return s.canonicalJSON(), true
}

// Import parses and registers a previously Exported document. It is
// Parse followed by Register: the document is re-validated, so a
// corrupted or hand-edited file fails cleanly instead of installing an
// incoherent spec.
func (r *Registry) Import(doc []byte) (id string, existed bool, err error) {
	s, err := Parse(doc)
	if err != nil {
		return "", false, err
	}
	return r.Register(s)
}
