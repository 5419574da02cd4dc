package server

// Lightweight API-key auth for the tenant header. Before this existed,
// X-Schedd-Tenant was trusted verbatim: any client could claim any tenant
// and ride its priority class. With a key set configured, a request that
// claims a tenant identity must present that tenant's shared secret in
// X-Schedd-Key, compared in constant time. The gateway (internal/cluster)
// verifies with the same KeySet at the edge and forwards both headers, so
// shards configured with the same keys re-verify the identity — defense in
// depth, no gateway-to-shard trust channel needed.
//
// Anonymous requests (no tenant header) stay first-class: they never need a
// key and land in the default class, exactly as before.

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
)

// TenantKeyHeader carries the tenant's API key alongside X-Schedd-Tenant.
const TenantKeyHeader = "X-Schedd-Key"

// KeySet maps tenant name -> shared secret. An empty (or nil) KeySet
// disables authentication: every identity claim is accepted, the
// pre-auth behavior.
type KeySet map[string]string

// parseKeySpec parses one -tenant-key flag value "tenant=secret".
func parseKeySpec(spec string) (tenant, key string, err error) {
	tenant, key, ok := strings.Cut(spec, "=")
	if !ok || !ValidTenantName(tenant) || key == "" {
		return "", "", fmt.Errorf("tenant key %q is not tenant=secret (tenant: 1-%d chars of [A-Za-z0-9._-], secret non-empty)",
			spec, maxTenantNameLen)
	}
	return tenant, key, nil
}

// loadKeyFile reads a JSON file of {"tenant": "secret", ...}.
func loadKeyFile(path string) (KeySet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ks KeySet
	if err := json.Unmarshal(data, &ks); err != nil {
		return nil, fmt.Errorf("tenant key file %s: %w", path, err)
	}
	for t, k := range ks {
		if !ValidTenantName(t) || k == "" {
			return nil, fmt.Errorf("tenant key file %s: bad entry %q", path, t)
		}
	}
	return ks, nil
}

// LoadKeys builds the key set of the -tenant-keys file (empty: none) with
// the repeatable -tenant-key specs layered on top, a spec replacing the
// file's key for the same tenant.
func LoadKeys(file string, specs []string) (KeySet, error) {
	var ks KeySet
	if file != "" {
		var err error
		if ks, err = loadKeyFile(file); err != nil {
			return nil, err
		}
	}
	for _, spec := range specs {
		t, k, err := parseKeySpec(spec)
		if err != nil {
			return nil, err
		}
		if ks == nil {
			ks = make(KeySet)
		}
		ks[t] = k
	}
	return ks, nil
}

// Verify checks a tenant identity claim against the key set. It returns nil
// when the claim is acceptable: auth disabled (empty set), no identity
// claimed, or the presented key matches the tenant's secret in constant
// time. With auth enabled, a claimed tenant that has no configured key is
// rejected — otherwise registering a key for "gold" tenants would be
// bypassed by claiming an unregistered name into a permissive class.
func (ks KeySet) Verify(tenant, presented string) error {
	if len(ks) == 0 || tenant == "" {
		return nil
	}
	want, ok := ks[tenant]
	// Compare even for unknown tenants so the two rejections are not
	// distinguishable by timing.
	match := subtle.ConstantTimeCompare([]byte(want), []byte(presented)) == 1
	if !ok {
		return fmt.Errorf("tenant %q has no API key registered", tenant)
	}
	if !match {
		return fmt.Errorf("tenant %q: API key mismatch", tenant)
	}
	return nil
}

// claimedTenant is the tenant identity a request claims: the
// X-Schedd-Tenant header, or ?tenant= for clients that cannot set headers.
// Both tiers read it here, schedd to admit the request (parseTenant) and
// the gateway to check its key (VerifyRequest).
func claimedTenant(r *http.Request) string {
	if tenant := r.Header.Get("X-Schedd-Tenant"); tenant != "" {
		return tenant
	}
	return r.URL.Query().Get("tenant")
}

// tenantKeyFrom extracts the presented API key (query ?key= as a fallback
// for clients that cannot set headers, mirroring claimedTenant).
func tenantKeyFrom(r *http.Request) string {
	if key := r.Header.Get(TenantKeyHeader); key != "" {
		return key
	}
	return r.URL.Query().Get("key")
}

// VerifyRequest applies Verify to a request's claimed identity and
// presented key.
func (ks KeySet) VerifyRequest(r *http.Request) error {
	return ks.Verify(claimedTenant(r), tenantKeyFrom(r))
}
