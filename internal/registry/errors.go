package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"github.com/open-metadata/xmit/internal/meta"
)

// ErrUnknownLineage reports a lookup against a lineage the registry has
// never seen.  Distinct from transport faults: a client that gets this
// knows the registry answered and the name does not exist.
var ErrUnknownLineage = errors.New("registry: unknown lineage")

// ErrUnknownVersion reports a version number outside a lineage's history.
var ErrUnknownVersion = errors.New("registry: unknown lineage version")

// CompatError is the typed rejection of a registration that violates the
// lineage's compatibility policy.  Violations is the machine-readable diff
// of the offending fields — the subset of the full evolution diff that
// breaks a direction the policy promises.
type CompatError struct {
	Lineage     string             `json:"lineage"`
	Policy      Policy             `json:"-"`
	PolicyName  string             `json:"policy"`
	FromVersion int                `json:"from_version"`
	ToID        meta.FormatID      `json:"to_id"`
	FromID      meta.FormatID      `json:"from_id"`
	Violations  []meta.FieldChange `json:"violations"`
}

// Error names the lineage, the policy, the versions, and every offending
// field, so the one-line rendering is actionable on its own.
func (e *CompatError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "registry: lineage %q: format %s violates %s policy against v%d (%s):",
		e.Lineage, e.ToID, e.Policy, e.FromVersion, e.FromID)
	for _, c := range e.Violations {
		b.WriteString(" [")
		b.WriteString(c.String())
		b.WriteByte(']')
	}
	return b.String()
}

// DecodeCompatJSON reconstructs a CompatError from its JSON encoding — the
// form it travels in between brokers ("ERR compat <json>" on the control
// protocol).  The typed fields that don't marshal (Policy, each
// violation's ChangeKind) are restored from their wire names, so the
// decoded error renders and matches errors.As exactly like the original.
func DecodeCompatJSON(data []byte) (*CompatError, error) {
	var ce CompatError
	if err := json.Unmarshal(data, &ce); err != nil {
		return nil, err
	}
	if p, err := ParsePolicy(ce.PolicyName); err == nil {
		ce.Policy = p
	}
	for i := range ce.Violations {
		if k, ok := meta.ParseChangeKind(ce.Violations[i].Kind); ok {
			ce.Violations[i].Change = k
		}
	}
	return &ce, nil
}
