package discovery

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"github.com/open-metadata/xmit/internal/dom"
)

// Mesh bootstrap: a federated broker serves a small XML document at a
// well-known HTTP path describing its own mesh identity and the peers it
// knows.  A joining broker fetches it (through Repository, so ETags and
// retry apply) and introduces itself to every address listed — the same
// discovery machinery that ships wire formats also bootstraps the broker
// topology, instead of a second ad-hoc config channel.
//
// The document is ordinary XMIT metadata:
//
//	<mesh self="host1:7070">
//	  <peer addr="host2:7070"/>
//	  <peer addr="host3:7070"/>
//	</mesh>

// WellKnownMeshPath is the HTTP path a federated broker serves its mesh
// document on.
const WellKnownMeshPath = "/.well-known/xmit-mesh"

// MeshDoc is the parsed form of a broker's mesh bootstrap document.
type MeshDoc struct {
	Self  string   // the serving broker's own mesh address
	Peers []string // peer broker addresses it knows, sorted
}

// Marshal renders the document.
func (d MeshDoc) Marshal() []byte {
	root := &dom.Element{
		Local: "mesh",
		Attrs: []dom.Attr{{Local: "self", Value: d.Self}},
	}
	peers := append([]string(nil), d.Peers...)
	sort.Strings(peers)
	for _, p := range peers {
		root.Children = append(root.Children, &dom.Element{
			Local:  "peer",
			Attrs:  []dom.Attr{{Local: "addr", Value: p}},
			Parent: root,
		})
	}
	var buf bytes.Buffer
	(&dom.Document{Root: root}).WriteXML(&buf)
	return buf.Bytes()
}

// ParseMeshDoc parses a mesh bootstrap document.
func ParseMeshDoc(data []byte) (MeshDoc, error) {
	doc, err := dom.ParseBytes(data)
	if err != nil {
		return MeshDoc{}, fmt.Errorf("discovery: mesh document: %w", err)
	}
	if doc.Root.Local != "mesh" {
		return MeshDoc{}, fmt.Errorf("discovery: mesh document: root element is <%s>, want <mesh>", doc.Root.Local)
	}
	self, ok := doc.Root.Attr("self")
	if !ok || self == "" {
		return MeshDoc{}, fmt.Errorf("discovery: mesh document: missing self attribute")
	}
	// Clone what outlives the parse: the document's strings share its bytes.
	d := MeshDoc{Self: strings.Clone(self)}
	for _, p := range doc.Root.ChildrenByName("peer") {
		if addr, ok := p.Attr("addr"); ok && addr != "" {
			d.Peers = append(d.Peers, strings.Clone(addr))
		}
	}
	sort.Strings(d.Peers)
	return d, nil
}

// MeshHandler serves a broker's mesh document at WellKnownMeshPath.  view is
// called per request so the document tracks live mesh membership.
func MeshHandler(view func() MeshDoc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if r.URL.Path != WellKnownMeshPath && r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/xml")
		w.Write(view().Marshal())
	})
}

// FetchMesh retrieves and parses a mesh bootstrap document.  url may be the
// well-known URL itself or a bare http(s) origin, in which case the
// well-known path is appended.
func (r *Repository) FetchMesh(url string) (MeshDoc, error) {
	data, err := r.Fetch(MeshURL(url))
	if err != nil {
		return MeshDoc{}, err
	}
	return ParseMeshDoc(data)
}

// MeshURL normalises a mesh bootstrap URL: a bare origin gets the
// well-known path appended; a URL that already names a path is returned
// unchanged.
func MeshURL(url string) string {
	origin, rest := url, ""
	if i := strings.Index(url, "://"); i >= 0 {
		if j := strings.IndexByte(url[i+3:], '/'); j >= 0 {
			origin, rest = url[:i+3+j], url[i+3+j:]
		}
	}
	if rest == "" || rest == "/" {
		return origin + WellKnownMeshPath
	}
	return url
}
