package xmldom

// The reference serializer, for the external tests that compare the
// writer with it on real documents.
var (
	ReferenceString         = refString
	ReferenceIndentedString = refIndentedString
)
