//===- Parser.h - Recursive-descent parser ----------------------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser producing a surface AST. Struct types must be
/// declared before use (this is how `S *p;` is disambiguated from a
/// multiplication expression statement). Semantic checking happens in Sema.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_LANG_PARSER_H
#define KISS_LANG_PARSER_H

#include "lang/AST.h"
#include "lang/Lexer.h"

#include <memory>
#include <set>

namespace kiss {
class DiagnosticEngine;
class SourceManager;
} // namespace kiss

namespace kiss::lang {

/// Parses one source buffer into a Program (surface AST, unresolved).
/// On syntax errors, diagnostics are reported and null is returned.
class Parser {
public:
  Parser(const SourceManager &SM, uint32_t BufferId, SymbolTable &Syms,
         TypeContext &Types, DiagnosticEngine &Diags);

  /// Parses the whole buffer. \returns the program, or null on error.
  std::unique_ptr<Program> parseProgram();

private:
  //===--- Token plumbing ---===//
  const Token &tok() const { return Tok; }
  void consume();
  bool expect(TokenKind Kind);
  bool consumeIf(TokenKind Kind);
  Symbol internText(const Token &T);

  //===--- Declarations ---===//
  bool parseTopLevelDecl(Program &P);
  bool parseStructDecl(Program &P);
  bool parseFuncOrGlobal(Program &P);

  //===--- Types ---===//
  /// \returns true if the current token can begin a type.
  bool startsType() const;
  const Type *parseType();

  //===--- Statements ---===//
  StmtPtr parseStmt();
  StmtPtr parseBlock();
  StmtPtr parseDeclStmt();
  StmtPtr parseIf();
  StmtPtr parseWhile();
  StmtPtr parseChoice();
  StmtPtr parseAssignOrExprStmt();

  //===--- Expressions ---===//
  ExprPtr parseExpr();
  ExprPtr parseLOr();
  ExprPtr parseLAnd();
  ExprPtr parseCompare();
  ExprPtr parseAdd();
  ExprPtr parseMul();
  ExprPtr parseUnary();
  ExprPtr parsePostfix();
  ExprPtr parsePrimary();

  /// Parses an optionally-negated integer literal (for nondet_int bounds).
  bool parseSignedIntLiteral(int64_t &Out);

  Lexer Lex;
  Token Tok;
  SymbolTable &Syms;
  TypeContext &Types;
  DiagnosticEngine &Diags;

  /// Struct names declared so far; used to recognize declaration statements.
  std::set<Symbol> KnownStructNames;
  /// Parsed statements of the blocks still open, outermost first.
  std::vector<StmtPtr> Pending;
};

/// Convenience: parse \p Source (registered as \p Name in \p SM) into a
/// Program. \returns null and reports diagnostics on failure.
std::unique_ptr<Program> parse(SourceManager &SM, std::string Name,
                               std::string Source, SymbolTable &Syms,
                               TypeContext &Types, DiagnosticEngine &Diags);

} // namespace kiss::lang

#endif // KISS_LANG_PARSER_H
