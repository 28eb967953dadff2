package edgecache

import (
	"encoding/json"
	"strings"

	"planetapps/internal/apiwire"
)

// Synthetic categories for non-detail documents: the category-aware
// policy needs every cached key in some partition, and route kind is the
// natural one for documents without an app category. The NUL prefix keeps
// them disjoint from real category names.
const (
	catList     = "\x00list"
	catStats    = "\x00stats"
	catComments = "\x00comments"
	catOther    = "\x00other"
	catDetail   = "\x00detail" // detail page whose body did not parse
)

// classify names the partition the category-aware policy files a document
// under: a detail page's own category, read from its body; every other
// document, or a detail body that does not parse, its route's bin.
func classify(key string, body []byte) string {
	path := key
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	kind, _, idOK := apiwire.ParsePath(path)
	switch kind {
	case apiwire.List:
		return catList
	case apiwire.Stats:
		return catStats
	case apiwire.Comments:
		return catComments
	case apiwire.Detail:
		if !idOK {
			break
		}
		var doc struct {
			Category string `json:"category"`
		}
		if json.Unmarshal(body, &doc) == nil && doc.Category != "" {
			return doc.Category
		}
		return catDetail
	}
	return catOther
}

// internCat returns the dense id for a category name. Caller holds s.mu.
func (s *Server) internCat(name string) int32 {
	if id, ok := s.cats[name]; ok {
		return id
	}
	id := int32(len(s.cats))
	s.cats[name] = id
	return id
}
