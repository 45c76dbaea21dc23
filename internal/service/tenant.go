package service

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// The tenant layer turns mdwd from a demo daemon into a multi-tenant
// service: every request is attributed to a tenant (by API key, or the
// anonymous tenant when no tenants file is configured), and the job pool
// schedules tenants against each other by weight and priority class instead
// of one global FIFO. With no tenants configured the daemon behaves exactly
// as before: one anonymous tenant, weight 1, no quotas, no auth.

// Tenant is one configured API client class: its key, scheduling parameters,
// and admission quotas. The zero quota values mean "unlimited".
type Tenant struct {
	// Key is the API key presented as "Authorization: Bearer <key>". Empty
	// only for the anonymous tenant.
	Key string
	// Name identifies the tenant in job views, metrics labels, and the
	// journal. Label-safe ([A-Za-z0-9._-]) and unique within a TenantSet.
	Name string
	// Weight is the tenant's fair-share weight (>= 1): under saturation a
	// tenant's completed-job share converges to Weight over the sum of the
	// active tenants' weights within its priority class.
	Weight int
	// Priority is the tenant's priority class (0-9, default 0). A queued job
	// of a higher class is always dispatched before any lower-class job, but
	// classes never preempt jobs already running.
	Priority int
	// MaxQueued caps this tenant's queued-but-unstarted jobs; a submission
	// beyond it is rejected with 429 and a Retry-After computed from this
	// tenant's own queue. 0 = no per-tenant cap (the global backlog still
	// applies).
	MaxQueued int
	// MaxRunning caps this tenant's concurrently running jobs: queued jobs
	// beyond it wait, leaving workers to other tenants. 0 = no cap.
	MaxRunning int
}

// anonymous is the implicit tenant of every request when no tenants file is
// configured (and of direct pool submissions in tests). Its empty name keeps
// JobView and journal records byte-identical to the pre-tenant daemon.
var anonymous = &Tenant{Name: "", Weight: 1}

// TenantSet is a parsed tenants file: the key table the server authenticates
// against.
type TenantSet struct {
	byKey  map[string]*Tenant
	byName map[string]*Tenant
	list   []*Tenant // file order
}

// LookupKey resolves an API key to its tenant (nil when unknown).
func (ts *TenantSet) LookupKey(key string) *Tenant {
	if ts == nil {
		return nil
	}
	return ts.byKey[key]
}

// ByName resolves a tenant name (nil when unknown) — the journal-replay path,
// which records names, never keys.
func (ts *TenantSet) ByName(name string) *Tenant {
	if ts == nil {
		return nil
	}
	return ts.byName[name]
}

// Tenants returns the set in file order.
func (ts *TenantSet) Tenants() []*Tenant {
	if ts == nil {
		return nil
	}
	return ts.list
}

// Names returns the tenant names in sorted order.
func (ts *TenantSet) Names() []string {
	if ts == nil {
		return nil
	}
	out := make([]string, 0, len(ts.list))
	for _, t := range ts.list {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// labelSafe reports whether a tenant name can travel as a Prometheus label
// value and a journal field without escaping surprises.
func labelSafe(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-':
		default:
			return false
		}
	}
	return true
}

// keySafe rejects keys that cannot survive an Authorization header: empty,
// whitespace, or control characters.
func keySafe(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r <= ' ' || r == 0x7f {
			return false
		}
	}
	return true
}

// ParseTenants parses a tenants file. The grammar is line-based:
//
//	# comment
//	<key> <name> <weight> [priority=N] [max-queued=N] [max-running=N]
//
// Keys and names must be unique, weights >= 1, priorities 0..9, quotas >= 0.
// The parser never panics on any input (FuzzTenantConfig holds it to that).
func ParseTenants(data []byte) (*TenantSet, error) {
	ts := &TenantSet{byKey: make(map[string]*Tenant), byName: make(map[string]*Tenant)}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("tenants:%d: want \"<key> <name> <weight> [k=v ...]\", got %q", lineNo, line)
		}
		t := &Tenant{Key: fields[0], Name: fields[1]}
		if !keySafe(t.Key) {
			return nil, fmt.Errorf("tenants:%d: key %q has whitespace or control characters", lineNo, t.Key)
		}
		if !labelSafe(t.Name) {
			return nil, fmt.Errorf("tenants:%d: name %q is not label-safe ([A-Za-z0-9._-]+)", lineNo, t.Name)
		}
		w, err := strconv.Atoi(fields[2])
		if err != nil || w < 1 {
			return nil, fmt.Errorf("tenants:%d: weight %q must be an integer >= 1", lineNo, fields[2])
		}
		t.Weight = w
		for _, opt := range fields[3:] {
			k, v, ok := strings.Cut(opt, "=")
			if !ok {
				return nil, fmt.Errorf("tenants:%d: option %q is not k=v", lineNo, opt)
			}
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("tenants:%d: option %s=%q is not an integer", lineNo, k, v)
			}
			switch k {
			case "priority":
				if n < 0 || n > 9 {
					return nil, fmt.Errorf("tenants:%d: priority %d out of range 0..9", lineNo, n)
				}
				t.Priority = n
			case "max-queued":
				if n < 0 {
					return nil, fmt.Errorf("tenants:%d: max-queued %d is negative", lineNo, n)
				}
				t.MaxQueued = n
			case "max-running":
				if n < 0 {
					return nil, fmt.Errorf("tenants:%d: max-running %d is negative", lineNo, n)
				}
				t.MaxRunning = n
			default:
				return nil, fmt.Errorf("tenants:%d: unknown option %q (have priority, max-queued, max-running)", lineNo, k)
			}
		}
		if _, dup := ts.byKey[t.Key]; dup {
			return nil, fmt.Errorf("tenants:%d: duplicate key %q", lineNo, t.Key)
		}
		if _, dup := ts.byName[t.Name]; dup {
			return nil, fmt.Errorf("tenants:%d: duplicate tenant name %q", lineNo, t.Name)
		}
		ts.byKey[t.Key] = t
		ts.byName[t.Name] = t
		ts.list = append(ts.list, t)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	if len(ts.list) == 0 {
		return nil, fmt.Errorf("tenants: no tenants defined")
	}
	return ts, nil
}

// LoadTenants reads and parses a tenants file from disk.
func LoadTenants(path string) (*TenantSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	ts, err := ParseTenants(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ts, nil
}
