package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Tenant is one API-key principal: a name (the identity metrics and the
// fair-share scheduler key off), its bearer key, and its admission-control
// budget. The zero budget means unlimited — the tenant is still isolated
// by fair-share queueing and the global queue bound.
type Tenant struct {
	// Name identifies the tenant in job routing, metrics and logs. It is
	// a label value, so keep it short and stable.
	Name string `json:"name"`
	// Key is the bearer token presented in the Authorization header.
	Key string `json:"key"`
	// Revoked keeps the key on file but refuses it with 403 — the
	// operational difference between "never heard of you" (401, possibly
	// a typo) and "you are no longer welcome" (403, deliberate).
	Revoked bool `json:"revoked,omitempty"`
	// Rate is the token-bucket refill rate in job admissions per second;
	// 0 means unlimited.
	Rate float64 `json:"rate,omitempty"`
	// Burst is the bucket capacity — how many admissions the tenant can
	// spend at once after an idle period. 0 derives max(1, ceil(Rate)).
	Burst float64 `json:"burst,omitempty"`
}

// AnonymousTenant is the tenant name used for requests when authentication
// is disabled (no key set configured), keeping the per-tenant metric and
// scheduling vocabulary total.
const AnonymousTenant = "anonymous"

// tenantState pairs a tenant record with its live token bucket.
type tenantState struct {
	Tenant
	bucket bucket
}

// Auth is the per-tenant key set and admission-control state. A nil *Auth
// disables authentication: every request is the anonymous tenant with no
// rate limit.
type Auth struct {
	mu    sync.Mutex
	byKey map[string]*tenantState
	now   func() time.Time // injectable clock for deterministic tests
}

// NewAuth builds an authenticator from tenant records. Every tenant needs
// a unique non-empty name and key; rates must be non-negative.
func NewAuth(tenants []Tenant) (*Auth, error) {
	a := &Auth{byKey: map[string]*tenantState{}, now: time.Now}
	names := map[string]bool{}
	for _, t := range tenants {
		if t.Name == "" || t.Key == "" {
			return nil, fmt.Errorf("service: tenant needs both name and key (name %q)", t.Name)
		}
		if t.Name == AnonymousTenant {
			return nil, fmt.Errorf("service: tenant name %q is reserved", AnonymousTenant)
		}
		if t.Rate < 0 || t.Burst < 0 {
			return nil, fmt.Errorf("service: tenant %q has a negative rate or burst", t.Name)
		}
		if names[t.Name] {
			return nil, fmt.Errorf("service: duplicate tenant name %q", t.Name)
		}
		if _, dup := a.byKey[t.Key]; dup {
			return nil, fmt.Errorf("service: duplicate key for tenant %q", t.Name)
		}
		names[t.Name] = true
		st := &tenantState{Tenant: t}
		st.bucket.init(t.Rate, t.Burst)
		a.byKey[t.Key] = st
	}
	if len(a.byKey) == 0 {
		return nil, errors.New("service: empty tenant set")
	}
	return a, nil
}

// keysFile is the on-disk key-set format: {"tenants":[...]}. A bare JSON
// array of tenants is accepted too.
type keysFile struct {
	Tenants []Tenant `json:"tenants"`
}

// LoadKeys reads a tenant key set from a JSON file — either
// {"tenants": [{"name":..., "key":..., "rate":..., "burst":...}, ...]} or
// a bare array of the same records.
func LoadKeys(path string) ([]Tenant, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("service: read keys file: %w", err)
	}
	return ParseKeys(data)
}

// ParseKeys parses a key set from JSON bytes (see LoadKeys).
func ParseKeys(data []byte) ([]Tenant, error) {
	trimmed := strings.TrimSpace(string(data))
	if strings.HasPrefix(trimmed, "[") {
		var tenants []Tenant
		if err := json.Unmarshal(data, &tenants); err != nil {
			return nil, fmt.Errorf("service: parse keys: %w", err)
		}
		return tenants, nil
	}
	var f keysFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("service: parse keys: %w", err)
	}
	return f.Tenants, nil
}

// ParseKeyFlag parses one "name:key[:rate[:burst]]" command-line tenant,
// the quick-start alternative to a keys file.
func ParseKeyFlag(s string) (Tenant, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 4 || parts[0] == "" || parts[1] == "" {
		return Tenant{}, fmt.Errorf("service: key flag %q, want name:key[:rate[:burst]]", s)
	}
	t := Tenant{Name: parts[0], Key: parts[1]}
	var err error
	if len(parts) >= 3 {
		if t.Rate, err = strconv.ParseFloat(parts[2], 64); err != nil {
			return Tenant{}, fmt.Errorf("service: key flag %q: bad rate: %w", s, err)
		}
	}
	if len(parts) == 4 {
		if t.Burst, err = strconv.ParseFloat(parts[3], 64); err != nil {
			return Tenant{}, fmt.Errorf("service: key flag %q: bad burst: %w", s, err)
		}
	}
	return t, nil
}

// Authentication outcomes, mapped to status codes by the middleware.
var (
	// ErrNoKey reports a request with no bearer token (401).
	ErrNoKey = errors.New("service: missing bearer token")
	// ErrUnknownKey reports a bearer token matching no tenant (401).
	ErrUnknownKey = errors.New("service: unknown API key")
	// ErrRevokedKey reports a valid but revoked key (403).
	ErrRevokedKey = errors.New("service: API key revoked")
)

// authenticate resolves the request's bearer token to a tenant. The error
// is one of ErrNoKey, ErrUnknownKey or ErrRevokedKey.
func (a *Auth) authenticate(r *http.Request) (*tenantState, error) {
	h := r.Header.Get("Authorization")
	if h == "" {
		return nil, ErrNoKey
	}
	scheme, key, ok := strings.Cut(h, " ")
	if !ok || !strings.EqualFold(scheme, "Bearer") || key == "" {
		return nil, ErrNoKey
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.byKey[strings.TrimSpace(key)]
	if st == nil {
		return nil, ErrUnknownKey
	}
	if st.Revoked { // Revoke writes it under a.mu
		return nil, ErrRevokedKey
	}
	return st, nil
}

// Revoke marks a tenant's key revoked at runtime, reporting whether the
// tenant exists. Revocation takes effect on the next request.
func (a *Auth) Revoke(name string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, st := range a.byKey {
		if st.Name == name {
			st.Revoked = true
			return true
		}
	}
	return false
}

const ctxKeyTenant ctxKey = 100

// anonymous is the request-context tenant when authentication is disabled or
// the path is open; admit never charges it.
var anonymous = &tenantState{Tenant: Tenant{Name: AnonymousTenant}}

// tenantOf returns the tenant withAuth resolved the request to; nil outside a
// server request.
func tenantOf(ctx context.Context) *tenantState {
	st, _ := ctx.Value(ctxKeyTenant).(*tenantState)
	return st
}

// TenantName returns the authenticated tenant of the request context,
// AnonymousTenant when authentication is disabled, and "" outside a server
// request.
func TenantName(ctx context.Context) string {
	if st := tenantOf(ctx); st != nil {
		return st.Name
	}
	return ""
}

// openPath reports paths served without authentication even when a key set
// is configured: liveness and metrics are operator plumbing (reachable
// only from the deployment's own network in any sane topology), not
// tenant surface.
func openPath(path string) bool {
	return path == "/healthz" || path == "/metrics"
}

// withAuth is the tenancy middleware: it resolves the bearer token to a
// tenant (401/403 on failure), stashes the tenant in the request context for
// admission control and job routing, counts the request into the per-tenant
// metric family, and annotates the access log. With no authenticator
// configured every request is the anonymous tenant.
func (s *Server) withAuth(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := anonymous
		if s.auth != nil && !openPath(r.URL.Path) {
			var err error
			if st, err = s.auth.authenticate(r); err != nil {
				code := http.StatusUnauthorized
				if errors.Is(err, ErrRevokedKey) {
					code = http.StatusForbidden
				}
				if code == http.StatusUnauthorized {
					w.Header().Set("WWW-Authenticate", `Bearer realm="neutral"`)
				}
				s.engine.metrics.tenantDenied.With(reasonOf(err)).Inc()
				s.writeError(w, r, code, err)
				return
			}
		}
		s.engine.metrics.tenantRequests.With(st.Name).Inc()
		annotate(r, slog.String("tenant", st.Name))
		ctx := context.WithValue(r.Context(), ctxKeyTenant, st)
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// reasonOf labels an authentication failure for the denial counter.
func reasonOf(err error) string {
	switch {
	case errors.Is(err, ErrRevokedKey):
		return "revoked"
	case errors.Is(err, ErrUnknownKey):
		return "unknown"
	default:
		return "missing"
	}
}
