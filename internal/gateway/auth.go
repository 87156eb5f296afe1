package gateway

import (
	"maps"
	"net/http"
	"strings"
)

// AnonymousPrincipal is the principal every request runs as when the
// gateway has no token table (auth disabled).
const AnonymousPrincipal = "anonymous"

// authenticator resolves static bearer tokens to principal names. The token
// table is immutable after construction, so lookups are lock-free.
type authenticator struct {
	tokens map[string]string // token -> principal
}

func newAuthenticator(tokens map[string]string) *authenticator {
	return &authenticator{tokens: maps.Clone(tokens)}
}

// principal authenticates r, returning the principal name. Tokens arrive as
// "Authorization: Bearer <token>" or — for WebSocket clients that cannot
// set headers (browsers) — as an access_token query parameter, mirroring
// RFC 6750 §2.3.
func (a *authenticator) principal(r *http.Request) (string, bool) {
	if len(a.tokens) == 0 {
		return AnonymousPrincipal, true
	}
	token := ""
	if h := r.Header.Get("Authorization"); h != "" {
		if rest, ok := strings.CutPrefix(h, "Bearer "); ok {
			token = rest
		}
	}
	if token == "" {
		token = r.URL.Query().Get("access_token")
	}
	if token == "" {
		return "", false
	}
	p, ok := a.tokens[token]
	return p, ok
}
