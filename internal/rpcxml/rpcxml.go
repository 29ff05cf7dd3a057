// Package rpcxml implements the SOAP/XML-RPC style interface the paper
// lists as a planned XMIT output mode (§3.2 "Others"): remote calls whose
// envelopes and payloads are XML text, with the payload message formats
// defined by the same metadata the binary mechanisms use.
//
// The envelope is deliberately minimal:
//
//	<call><method>NAME</method><PayloadType>...</PayloadType></call>
//	<reply><PayloadType>...</PayloadType></reply>
//	<reply><fault>message</fault></reply>
//
// Payloads are ordinary xmlwire messages, so any format the toolkit can
// translate works as an argument or result.  The point the paper makes —
// and the benchmarks here reproduce — is that this interoperability costs
// text conversion on every call, which is what XMIT avoids on the data
// path.
package rpcxml

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"github.com/open-metadata/xmit/internal/dom"
	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/xmlwire"
)

// maxEnvelope bounds request and reply documents.
const maxEnvelope = 16 << 20

// Handler describes one callable method.
type Handler struct {
	// Method is the method name.
	Method string
	// ReqFormat and RespFormat are the argument and result formats.
	ReqFormat, RespFormat *meta.Format
	// NewReq allocates a request value (a pointer to the bound struct).
	NewReq func() any
	// Call executes the method.
	Call func(req any) (resp any, err error)
}

type compiledHandler struct {
	Handler
	reqCodec  *xmlwire.Codec
	respCodec *xmlwire.Codec
}

// Server dispatches XML calls to registered handlers.  It implements
// http.Handler (POST only).
type Server struct {
	mu       sync.RWMutex
	handlers map[string]*compiledHandler
	dynamic  map[string]*dynamicHandler
}

// NewServer creates an empty server.
func NewServer() *Server {
	return &Server{handlers: make(map[string]*compiledHandler)}
}

// Register installs a handler.  The request codec compiles immediately
// against NewReq's type; the response codec compiles against the concrete
// type of the first reply, which every subsequent reply must match.
func (s *Server) Register(h Handler) error {
	if h.Method == "" || h.ReqFormat == nil || h.RespFormat == nil || h.NewReq == nil || h.Call == nil {
		return fmt.Errorf("rpcxml: incomplete handler for %q", h.Method)
	}
	reqCodec, err := xmlwire.NewCodec(h.ReqFormat, h.NewReq())
	if err != nil {
		return fmt.Errorf("rpcxml: method %q request: %w", h.Method, err)
	}
	ch := &compiledHandler{Handler: h, reqCodec: reqCodec}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[h.Method]; dup {
		return fmt.Errorf("rpcxml: method %q already registered", h.Method)
	}
	s.handlers[h.Method] = ch
	return nil
}

// RegisterDynamic installs a handler that works entirely on dynamic
// records — no compiled Go types on either side, so a server can expose
// methods over formats it discovered at run time.
func (s *Server) RegisterDynamic(method string, reqFmt, respFmt *meta.Format,
	call func(req *pbio.Record) (*pbio.Record, error)) error {
	if method == "" || reqFmt == nil || respFmt == nil || call == nil {
		return fmt.Errorf("rpcxml: incomplete dynamic handler for %q", method)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[method]; dup || s.dynamic[method] != nil {
		return fmt.Errorf("rpcxml: method %q already registered", method)
	}
	if s.dynamic == nil {
		s.dynamic = make(map[string]*dynamicHandler)
	}
	s.dynamic[method] = &dynamicHandler{reqFmt: reqFmt, respFmt: respFmt, call: call}
	return nil
}

type dynamicHandler struct {
	reqFmt, respFmt *meta.Format
	call            func(*pbio.Record) (*pbio.Record, error)
}

// Methods lists the registered method names.
func (s *Server) Methods() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.handlers)+len(s.dynamic))
	for m := range s.handlers {
		out = append(out, m)
	}
	for m := range s.dynamic {
		out = append(out, m)
	}
	return out
}

// ServeHTTP handles one call.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "rpcxml: POST required", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxEnvelope+1))
	if err != nil || len(body) > maxEnvelope {
		writeFault(w, http.StatusBadRequest, "unreadable or oversized request")
		return
	}
	out, status := s.dispatch(body)
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	w.WriteHeader(status)
	w.Write(out)
}

// dispatch parses the envelope, runs the handler, and renders the reply.
func (s *Server) dispatch(body []byte) ([]byte, int) {
	docT, err := dom.ParseBytes(body)
	if err != nil {
		return faultBody("malformed envelope: " + err.Error()), http.StatusBadRequest
	}
	root := docT.Root
	if root.Local != "call" {
		return faultBody("envelope root must be <call>"), http.StatusBadRequest
	}
	methodEl := root.FirstChild("method")
	if methodEl == nil || methodEl.Text == "" {
		return faultBody("missing <method>"), http.StatusBadRequest
	}
	s.mu.RLock()
	h := s.handlers[methodEl.Text]
	dh := s.dynamic[methodEl.Text]
	s.mu.RUnlock()
	if h == nil && dh == nil {
		return faultBody("unknown method " + methodEl.Text), http.StatusNotFound
	}
	var payload *dom.Element
	for _, c := range root.Children {
		if c.Local != "method" {
			payload = c
			break
		}
	}
	if payload == nil {
		return faultBody("missing payload element"), http.StatusBadRequest
	}
	if dh != nil {
		return s.dispatchDynamic(dh, payload)
	}
	if payload.Local != h.ReqFormat.Name {
		return faultBody(fmt.Sprintf("payload <%s> does not match method argument %q",
			payload.Local, h.ReqFormat.Name)), http.StatusBadRequest
	}
	req := h.NewReq()
	if err := h.reqCodec.DecodeElement(payload, req); err != nil {
		return faultBody("bad argument: " + err.Error()), http.StatusBadRequest
	}
	resp, err := h.Call(req)
	if err != nil {
		return faultBody(err.Error()), http.StatusOK // application fault
	}
	s.mu.Lock()
	if h.respCodec == nil {
		h.respCodec, err = xmlwire.NewCodec(h.RespFormat, resp)
	}
	codec := h.respCodec
	s.mu.Unlock()
	if err != nil {
		return faultBody("internal: response codec: " + err.Error()), http.StatusInternalServerError
	}
	out := []byte("<reply>")
	out, err = codec.Encode(out, resp)
	if err != nil {
		return faultBody("internal: encoding response: " + err.Error()), http.StatusInternalServerError
	}
	out = append(out, "</reply>"...)
	return out, http.StatusOK
}

// dispatchDynamic handles a record-based method.
func (s *Server) dispatchDynamic(dh *dynamicHandler, payload *dom.Element) ([]byte, int) {
	if payload.Local != dh.reqFmt.Name {
		return faultBody(fmt.Sprintf("payload <%s> does not match method argument %q",
			payload.Local, dh.reqFmt.Name)), http.StatusBadRequest
	}
	req, err := xmlwire.DecodeRecordElement(dh.reqFmt, payload)
	if err != nil {
		return faultBody("bad argument: " + err.Error()), http.StatusBadRequest
	}
	resp, err := dh.call(req)
	if err != nil {
		return faultBody(err.Error()), http.StatusOK // application fault
	}
	if resp == nil || resp.Format().ID() != dh.respFmt.ID() {
		return faultBody("internal: handler returned a mismatched record"), http.StatusInternalServerError
	}
	out := []byte("<reply>")
	out, err = xmlwire.EncodeRecord(out, resp)
	if err != nil {
		return faultBody("internal: encoding response: " + err.Error()), http.StatusInternalServerError
	}
	return append(out, "</reply>"...), http.StatusOK
}

// CallRecord invokes a method with a dynamic record argument and returns a
// dynamic record result — no compiled Go types involved on the client
// either.
func (c *Client) CallRecord(method string, req *pbio.Record, respFmt *meta.Format) (*pbio.Record, error) {
	body := []byte("<call><method>")
	body = appendEscapedText(body, method)
	body = append(body, "</method>"...)
	var err error
	body, err = xmlwire.EncodeRecord(body, req)
	if err != nil {
		return nil, err
	}
	body = append(body, "</call>"...)

	httpResp, err := c.http.Post(c.url, "text/xml", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("rpcxml: %w", err)
	}
	defer httpResp.Body.Close()
	replyBytes, err := io.ReadAll(io.LimitReader(httpResp.Body, maxEnvelope+1))
	if err != nil {
		return nil, fmt.Errorf("rpcxml: reading reply: %w", err)
	}
	doc, err := dom.ParseBytes(replyBytes)
	if err != nil {
		return nil, fmt.Errorf("rpcxml: malformed reply: %w", err)
	}
	if doc.Root.Local != "reply" {
		return nil, fmt.Errorf("rpcxml: reply root is <%s>", doc.Root.Local)
	}
	if f := doc.Root.FirstChild("fault"); f != nil {
		return nil, &Fault{Message: strings.Clone(f.Text)}
	}
	payload := doc.Root.FirstChild(respFmt.Name)
	if payload == nil {
		return nil, fmt.Errorf("rpcxml: reply lacks a <%s> payload", respFmt.Name)
	}
	return xmlwire.DecodeRecordElement(respFmt, payload)
}

func faultBody(msg string) []byte {
	out := []byte("<reply><fault>")
	out = appendEscapedText(out, msg)
	return append(out, "</fault></reply>"...)
}

func appendEscapedText(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		default:
			dst = append(dst, s[i])
		}
	}
	return dst
}

func writeFault(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	w.WriteHeader(status)
	w.Write(faultBody(msg))
}

// Fault is an application-level error returned by a remote method.
type Fault struct {
	Message string
}

// Error implements the error interface.
func (f *Fault) Error() string { return "rpcxml: fault: " + f.Message }

// Client calls methods on an rpcxml server.
type Client struct {
	url  string
	http *http.Client

	mu     sync.Mutex
	codecs map[string]*xmlwire.Codec // by format name + Go type identity is implied by usage
}

// NewClient creates a client for the server at url.
func NewClient(url string) *Client {
	return &Client{url: url, http: http.DefaultClient, codecs: make(map[string]*xmlwire.Codec)}
}

// Call invokes method with the given argument and decodes the result into
// resp.  reqFmt and respFmt are the payload formats (typically XMIT
// binding-token formats).  Application faults are returned as *Fault.
func (c *Client) Call(method string, reqFmt *meta.Format, req any, respFmt *meta.Format, resp any) error {
	reqCodec, err := c.codec(reqFmt, req)
	if err != nil {
		return err
	}
	body := []byte("<call><method>")
	body = appendEscapedText(body, method)
	body = append(body, "</method>"...)
	body, err = reqCodec.Encode(body, req)
	if err != nil {
		return err
	}
	body = append(body, "</call>"...)

	httpResp, err := c.http.Post(c.url, "text/xml", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("rpcxml: %w", err)
	}
	defer httpResp.Body.Close()
	replyBytes, err := io.ReadAll(io.LimitReader(httpResp.Body, maxEnvelope+1))
	if err != nil {
		return fmt.Errorf("rpcxml: reading reply: %w", err)
	}
	doc, err := dom.ParseBytes(replyBytes)
	if err != nil {
		return fmt.Errorf("rpcxml: malformed reply: %w", err)
	}
	if doc.Root.Local != "reply" {
		return fmt.Errorf("rpcxml: reply root is <%s>", doc.Root.Local)
	}
	if f := doc.Root.FirstChild("fault"); f != nil {
		return &Fault{Message: strings.Clone(f.Text)}
	}
	payload := doc.Root.FirstChild(respFmt.Name)
	if payload == nil {
		return fmt.Errorf("rpcxml: reply lacks a <%s> payload", respFmt.Name)
	}
	respCodec, err := c.codec(respFmt, resp)
	if err != nil {
		return err
	}
	return respCodec.DecodeElement(payload, resp)
}

func (c *Client) codec(f *meta.Format, sample any) (*xmlwire.Codec, error) {
	key := f.ID().String()
	c.mu.Lock()
	defer c.mu.Unlock()
	if codec, ok := c.codecs[key]; ok {
		return codec, nil
	}
	codec, err := xmlwire.NewCodec(f, sample)
	if err != nil {
		return nil, err
	}
	c.codecs[key] = codec
	return codec, nil
}
