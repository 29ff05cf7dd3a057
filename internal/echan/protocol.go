package echan

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"github.com/open-metadata/xmit/internal/registry"
)

// The broker control protocol is line-oriented text until a connection
// commits to a role, then binary transport frames:
//
//	CREATE <channel> [oob]            create a channel (oob: out-of-band metadata)
//	DERIVE <channel> <parent> <expr>  create a filtered derived channel
//	PUB <channel>                     become a publisher; transport frames follow
//	SUB <channel> [policy] [queue] [link] [after=<gen>] [version=<n>]
//	                                  become a subscriber; frames flow to the client
//	UNSUB                             (subscriber only) drain and detach
//	STATS <channel>                   one line of counters
//	LIST                              channel names
//	HELLO <addr>                      peer introduction (federated brokers)
//	HOME <channel>                    which broker the channel lives on
//	PEERS                             the broker's known mesh peers
//	MESH                              one line of mesh and per-link stats
//	LINEAGE <channel>                 the channel's format lineage: policy and versions
//	LINEAGES [<channel>] [after=<rev>]
//	                                  the registry's lineage document, format bodies
//	                                  included (federation gossip); see below
//	POLICY <channel> <policy>         set the channel lineage's compatibility policy
//
// Responses are a single line: "OK ..." or "ERR <reason>".  After "OK" to
// PUB the client sends transport frames (format announcements and data
// messages); after "OK" to SUB the server sends them.  A subscriber may
// still send "UNSUB" as a text line — the server acknowledges by draining
// the queue and closing the stream, so the text never interleaves with
// frame bytes in either direction.
//
// The SUB extensions belong to the federation layer: "link" marks the
// subscription as an inter-broker mesh link, whose data frames carry
// publish generations (transport.FrameDataSeq) so the downstream broker
// can deduplicate; "after=<gen>" resumes delivery from the channel's
// retention ring, failing with an ERR mentioning ErrResumeGap when
// retention no longer reaches back that far.  The "OK subscribed" response
// reports the exact attach generation as "gen=<n>".
//
// The schema-registry extensions need a broker with a registry attached
// (WithSchemaRegistry; echod -policy).  "version=<n>" pins the
// subscription to lineage version n: announcement replay serves that
// version and newer events are field-projected down to it (n=0 pins the
// current head).  LINEAGE answers "OK name=<ch> policy=<p> head=<n>
// v1=<id> v2=<id> ...".  POLICY takes a registry policy name
// (none | backward | forward | full | *_transitive) and fails if the
// lineage's existing history violates the tightened policy.
//
// LINEAGES is the registry-gossip verb: peers pull lineage state (the
// /.well-known/xmit-lineages XML document with canonical format bodies
// inlined) over the same connection they mesh on.  With no arguments the
// full snapshot is returned; "after=<rev>" narrows it to lineages mutated
// after that registry revision (an incremental delta); a channel name
// narrows it to that channel's lineage.  The response is
// "OK rev=<registry-rev> bytes=<n>" followed by exactly n bytes of XML —
// the only response in the protocol that carries a sized binary payload.
//
// maxCommandLine bounds a control line, newline included; longer input is
// a protocol error.
const maxCommandLine = 4096

// maxLineagesBytes bounds the n a client accepts in a LINEAGES response
// before it allocates n bytes for the document.
const maxLineagesBytes = 64 << 20

// Verb is a control-protocol command verb.
type Verb int

const (
	VerbCreate Verb = iota
	VerbDerive
	VerbPub
	VerbSub
	VerbUnsub
	VerbStats
	VerbList
	VerbHello
	VerbHome
	VerbPeers
	VerbMesh
	VerbLineage
	VerbPolicy
	VerbLineages
)

// Command is one parsed control line.
type Command struct {
	Verb     Verb
	Name     string
	Parent   string          // DERIVE only
	Filter   string          // DERIVE only, validated by ParseFilter
	Policy   Policy          // SUB only (default Block)
	Queue    int             // SUB only (0: channel default)
	OOB      bool            // CREATE only
	Link     bool            // SUB only: inter-broker link subscription
	After    uint64          // SUB only: resume after this generation
	HasAfter bool            // SUB only: After was given (0 is a valid position)
	Addr     string          // HELLO only: the caller's advertised broker address
	Version  int             // SUB only: pinned lineage version (0: head / not pinned)
	HasVer   bool            // SUB only: Version was given (version=0 pins the head)
	Compat   registry.Policy // POLICY only: the compatibility policy to set
}

// ParseCommand parses one control line.  It validates channel names, policy
// names, queue sizes, and (for DERIVE) that the filter expression compiles,
// so a command that parses is safe to execute.
func ParseCommand(line string) (Command, error) {
	if len(line) > maxCommandLine {
		return Command{}, fmt.Errorf("echan: command line over %d bytes", maxCommandLine)
	}
	line = strings.TrimRight(line, "\r\n")
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return Command{}, fmt.Errorf("echan: empty command")
	}
	verb := strings.ToUpper(fields[0])
	args := fields[1:]
	switch verb {
	case "CREATE":
		if len(args) < 1 || len(args) > 2 {
			return Command{}, fmt.Errorf("echan: usage: CREATE <channel> [oob]")
		}
		cmd := Command{Verb: VerbCreate, Name: args[0]}
		if len(args) == 2 {
			if !strings.EqualFold(args[1], "oob") {
				return Command{}, fmt.Errorf("echan: unknown CREATE option %q", args[1])
			}
			cmd.OOB = true
		}
		return cmd, checkName(cmd.Name)
	case "DERIVE":
		if len(args) < 3 {
			return Command{}, fmt.Errorf("echan: usage: DERIVE <channel> <parent> <filter>")
		}
		cmd := Command{Verb: VerbDerive, Name: args[0], Parent: args[1]}
		// The filter is the untokenised remainder of the line (so string
		// literals may contain spaces): skip the first three tokens in
		// place rather than re-searching, which would mis-split when the
		// parent name is a substring of the channel name.
		rest := line
		for _, tok := range []string{fields[0], args[0], args[1]} {
			rest = strings.TrimLeftFunc(rest, unicode.IsSpace)
			rest = rest[len(tok):]
		}
		cmd.Filter = strings.TrimSpace(rest)
		if err := checkName(cmd.Name); err != nil {
			return Command{}, err
		}
		if err := checkName(cmd.Parent); err != nil {
			return Command{}, err
		}
		if _, err := ParseFilter(cmd.Filter); err != nil {
			return Command{}, err
		}
		return cmd, nil
	case "PUB":
		if len(args) != 1 {
			return Command{}, fmt.Errorf("echan: usage: PUB <channel>")
		}
		cmd := Command{Verb: VerbPub, Name: args[0]}
		return cmd, checkName(cmd.Name)
	case "SUB":
		if len(args) < 1 || len(args) > 6 {
			return Command{}, fmt.Errorf("echan: usage: SUB <channel> [policy] [queue] [link] [after=<gen>] [version=<n>]")
		}
		cmd := Command{Verb: VerbSub, Name: args[0], Policy: Block}
		if err := checkName(cmd.Name); err != nil {
			return Command{}, err
		}
		// The positional policy and queue come first; the federation
		// extensions ("link", "after=<gen>") may follow in any order.
		rest := args[1:]
		if len(rest) > 0 && !isSubExtension(rest[0]) {
			p, err := ParsePolicy(rest[0])
			if err != nil {
				return Command{}, err
			}
			cmd.Policy = p
			rest = rest[1:]
		}
		if len(rest) > 0 && !isSubExtension(rest[0]) {
			n, err := strconv.Atoi(rest[0])
			if err != nil || n < 1 || n > 1<<20 {
				return Command{}, fmt.Errorf("echan: bad queue length %q", rest[0])
			}
			cmd.Queue = n
			rest = rest[1:]
		}
		for _, tok := range rest {
			switch {
			case strings.EqualFold(tok, "link"):
				cmd.Link = true
			case hasFoldPrefix(tok, "after="):
				g, err := strconv.ParseUint(tok[len("after="):], 10, 64)
				if err != nil {
					return Command{}, fmt.Errorf("echan: bad resume position %q", tok)
				}
				cmd.After = g
				cmd.HasAfter = true
			case hasFoldPrefix(tok, "version="):
				n, err := strconv.Atoi(tok[len("version="):])
				if err != nil || n < 0 || n > 1<<20 {
					return Command{}, fmt.Errorf("echan: bad lineage version %q", tok)
				}
				cmd.Version = n
				cmd.HasVer = true
			default:
				return Command{}, fmt.Errorf("echan: unknown SUB option %q", tok)
			}
		}
		return cmd, nil
	case "UNSUB":
		if len(args) != 0 {
			return Command{}, fmt.Errorf("echan: UNSUB takes no arguments")
		}
		return Command{Verb: VerbUnsub}, nil
	case "STATS":
		if len(args) != 1 {
			return Command{}, fmt.Errorf("echan: usage: STATS <channel>")
		}
		cmd := Command{Verb: VerbStats, Name: args[0]}
		return cmd, checkName(cmd.Name)
	case "LIST":
		if len(args) != 0 {
			return Command{}, fmt.Errorf("echan: LIST takes no arguments")
		}
		return Command{Verb: VerbList}, nil
	case "HELLO":
		if len(args) != 1 {
			return Command{}, fmt.Errorf("echan: usage: HELLO <addr>")
		}
		cmd := Command{Verb: VerbHello, Addr: args[0]}
		return cmd, checkAddr(cmd.Addr)
	case "HOME":
		if len(args) != 1 {
			return Command{}, fmt.Errorf("echan: usage: HOME <channel>")
		}
		cmd := Command{Verb: VerbHome, Name: args[0]}
		return cmd, checkName(cmd.Name)
	case "PEERS":
		if len(args) != 0 {
			return Command{}, fmt.Errorf("echan: PEERS takes no arguments")
		}
		return Command{Verb: VerbPeers}, nil
	case "MESH":
		if len(args) != 0 {
			return Command{}, fmt.Errorf("echan: MESH takes no arguments")
		}
		return Command{Verb: VerbMesh}, nil
	case "LINEAGE":
		if len(args) != 1 {
			return Command{}, fmt.Errorf("echan: usage: LINEAGE <channel>")
		}
		cmd := Command{Verb: VerbLineage, Name: args[0]}
		return cmd, checkName(cmd.Name)
	case "LINEAGES":
		if len(args) > 2 {
			return Command{}, fmt.Errorf("echan: usage: LINEAGES [<channel>] [after=<rev>]")
		}
		cmd := Command{Verb: VerbLineages}
		for _, tok := range args {
			switch {
			case hasFoldPrefix(tok, "after="):
				if cmd.HasAfter {
					return Command{}, fmt.Errorf("echan: duplicate LINEAGES option %q", tok)
				}
				r, err := strconv.ParseUint(tok[len("after="):], 10, 64)
				if err != nil {
					return Command{}, fmt.Errorf("echan: bad registry revision %q", tok)
				}
				cmd.After = r
				cmd.HasAfter = true
			case cmd.Name == "":
				if err := checkName(tok); err != nil {
					return Command{}, err
				}
				cmd.Name = tok
			default:
				return Command{}, fmt.Errorf("echan: unknown LINEAGES option %q", tok)
			}
		}
		return cmd, nil
	case "POLICY":
		if len(args) != 2 {
			return Command{}, fmt.Errorf("echan: usage: POLICY <channel> <policy>")
		}
		cmd := Command{Verb: VerbPolicy, Name: args[0]}
		if err := checkName(cmd.Name); err != nil {
			return Command{}, err
		}
		p, err := registry.ParsePolicy(args[1])
		if err != nil {
			return Command{}, err
		}
		cmd.Compat = p
		return cmd, nil
	}
	return Command{}, fmt.Errorf("echan: unknown command %q", fields[0])
}

// isSubExtension reports whether a SUB token is one of the federation
// extensions rather than a positional policy/queue argument.
func isSubExtension(tok string) bool {
	return strings.EqualFold(tok, "link") || hasFoldPrefix(tok, "after=") ||
		hasFoldPrefix(tok, "version=")
}

func hasFoldPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && strings.EqualFold(s[:len(prefix)], prefix)
}

func checkName(name string) error {
	if !validName(name) {
		return fmt.Errorf("echan: invalid channel name %q", name)
	}
	return nil
}

// checkAddr validates a peer broker address: a non-empty printable token
// with no whitespace or control bytes, at most 256 bytes.  The broker dials
// it, so host:port shape is ultimately checked by the dialer; the grammar
// here only has to keep the line protocol unambiguous.
func checkAddr(addr string) error {
	if addr == "" || len(addr) > 256 {
		return fmt.Errorf("echan: invalid peer address %q", addr)
	}
	for i := 0; i < len(addr); i++ {
		if addr[i] <= ' ' || addr[i] == 0x7f {
			return fmt.Errorf("echan: invalid peer address %q", addr)
		}
	}
	return nil
}
